open Obda_syntax

let body_preds (c : Ndl.clause) =
  List.filter_map
    (function Ndl.Pred (p, _) -> Some p | Ndl.Eq _ | Ndl.Dom _ -> None)
    c.body

let prune ~edb (q : Ndl.query) =
  (* 1. keep only productive clauses: every non-EDB body predicate must have
        a productive defining clause.  The least fixpoint, by a worklist:
        each clause counts its distinct body predicates not yet known
        productive, and its head becomes productive when the count is 0 *)
  let productive = Symbol.Tbl.create 16 in
  let waiting = Symbol.Tbl.create 16 in
  let queue = Queue.create () in
  let mark p =
    if not (Symbol.Tbl.mem productive p) then begin
      Symbol.Tbl.add productive p ();
      Queue.add p queue
    end
  in
  List.iter
    (fun (c : Ndl.clause) ->
      let pending =
        List.sort_uniq Symbol.compare
          (List.filter (fun p -> not (edb p)) (body_preds c))
      in
      if pending = [] then mark (fst c.head)
      else
        let count = ref (List.length pending) in
        List.iter
          (fun p ->
            let cur = Option.value ~default:[] (Symbol.Tbl.find_opt waiting p) in
            Symbol.Tbl.replace waiting p ((count, fst c.head) :: cur))
          pending)
    q.clauses;
  while not (Queue.is_empty queue) do
    List.iter
      (fun (count, head) ->
        decr count;
        if !count = 0 then mark head)
      (Option.value ~default:[] (Symbol.Tbl.find_opt waiting (Queue.pop queue)))
  done;
  let viable (c : Ndl.clause) =
    List.for_all (fun p -> edb p || Symbol.Tbl.mem productive p) (body_preds c)
  in
  let clauses = List.filter viable q.clauses in
  (* 2. keep only clauses reachable from the goal *)
  let by_head = Symbol.Tbl.create 16 in
  List.iter
    (fun (c : Ndl.clause) ->
      let cur = Option.value ~default:[] (Symbol.Tbl.find_opt by_head (fst c.head)) in
      Symbol.Tbl.replace by_head (fst c.head) (c :: cur))
    clauses;
  let reachable = Symbol.Tbl.create 16 in
  let rec visit p =
    if not (Symbol.Tbl.mem reachable p) then begin
      Symbol.Tbl.add reachable p ();
      List.iter
        (fun c -> List.iter visit (body_preds c))
        (Option.value ~default:[] (Symbol.Tbl.find_opt by_head p))
    end
  in
  visit q.goal;
  let clauses =
    List.filter (fun (c : Ndl.clause) -> Symbol.Tbl.mem reachable (fst c.head)) clauses
  in
  { q with clauses }

(* ------------------------------------------------------------------ *)
(* Tw* inlining *)

module VarSet = Set.Make (String)

let clause_var_set (c : Ndl.clause) = VarSet.of_list (Ndl.clause_vars c)

(* substitute the body of [def] for an occurrence [Pred (p, args)]; fresh
   names for the non-head variables of [def] *)
let instantiate (def : Ndl.clause) args ~taken =
  let head_args = snd def.head in
  let subst = Hashtbl.create 8 in
  let extra_eqs = ref [] in
  List.iter2
    (fun h a ->
      match h with
      | Ndl.Var v -> (
        match Hashtbl.find_opt subst v with
        | None -> Hashtbl.add subst v a
        | Some a' -> if a <> a' then extra_eqs := Ndl.Eq (a, a') :: !extra_eqs)
      | Ndl.Cst c -> extra_eqs := Ndl.Eq (Ndl.Cst c, a) :: !extra_eqs)
    head_args args;
  (* fresh names for body-only variables *)
  let counter = ref 0 in
  let fresh base =
    let rec go n =
      let cand = Printf.sprintf "%s~i%d" base n in
      if VarSet.mem cand taken then go (n + 1) else cand
    in
    incr counter;
    go !counter
  in
  let rename v =
    match Hashtbl.find_opt subst v with
    | Some t -> t
    | None ->
      let t = Ndl.Var (fresh v) in
      Hashtbl.add subst v t;
      t
  in
  let sub_term = function Ndl.Var v -> rename v | Ndl.Cst _ as t -> t in
  let sub_atom = function
    | Ndl.Pred (p, ts) -> Ndl.Pred (p, List.map sub_term ts)
    | Ndl.Eq (t1, t2) -> Ndl.Eq (sub_term t1, sub_term t2)
    | Ndl.Dom t -> Ndl.Dom (sub_term t)
  in
  List.map sub_atom def.body @ !extra_eqs

let inline_single_use ?(max_uses = 2) (q : Ndl.query) =
  let rec fixpoint (q : Ndl.query) =
    let defs = Symbol.Tbl.create 16 in
    List.iter
      (fun (c : Ndl.clause) ->
        let cur = Option.value ~default:[] (Symbol.Tbl.find_opt defs (fst c.head)) in
        Symbol.Tbl.replace defs (fst c.head) (c :: cur))
      q.clauses;
    let uses = Symbol.Tbl.create 16 in
    List.iter
      (fun (c : Ndl.clause) ->
        List.iter
          (fun p ->
            Symbol.Tbl.replace uses p
              (1 + Option.value ~default:0 (Symbol.Tbl.find_opt uses p)))
          (body_preds c))
      q.clauses;
    let inlinable p =
      (not (Symbol.equal p q.goal))
      && (match Symbol.Tbl.find_opt defs p with Some [ _ ] -> true | _ -> false)
      && Option.value ~default:0 (Symbol.Tbl.find_opt uses p) <= max_uses
    in
    match
      List.find_map
        (fun (c : Ndl.clause) ->
          if inlinable (fst c.head) then Some (fst c.head) else None)
        q.clauses
    with
    | None -> q
    | Some p ->
      let def =
        match Symbol.Tbl.find_opt defs p with Some [ d ] -> d | _ -> assert false
      in
      let clauses =
        List.filter_map
          (fun (c : Ndl.clause) ->
            if Symbol.equal (fst c.head) p then None
            else begin
              let taken = ref (clause_var_set c) in
              let body =
                List.concat_map
                  (fun atom ->
                    match atom with
                    | Ndl.Pred (p', args) when Symbol.equal p' p ->
                      let new_atoms = instantiate def args ~taken:!taken in
                      taken :=
                        List.fold_left
                          (fun acc a ->
                            List.fold_left (fun acc v -> VarSet.add v acc) acc
                              (Ndl.atom_vars a))
                          !taken new_atoms;
                      new_atoms
                    | Ndl.Pred _ | Ndl.Eq _ | Ndl.Dom _ -> [ atom ])
                  c.body
              in
              Some { c with body }
            end)
          q.clauses
      in
      fixpoint { q with clauses }
  in
  fixpoint q
