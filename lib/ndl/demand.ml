open Obda_syntax
open Obda_data

type restriction = {
  pred : Symbol.t;
  magic : Symbol.t;
  positions : int list;
  demand : float;
  keys : float;
  full : float;
}

type t = {
  query : Ndl.query;
  dropped : (Ndl.clause * Ndl.atom) list;
  skipped : Symbol.t list list;
  restricted : restriction list;
  cost : float Lazy.t;
}

type renaming = {
  src : Symbol.t;
  arity : int;
  perm : int array;
  identity : bool;
}

let renaming_of (c : Ndl.clause) =
  let vars ts =
    List.filter_map (function Ndl.Var v -> Some v | Ndl.Cst _ -> None) ts
  in
  match c.body with
  | [ Ndl.Pred (src, ts) ] ->
    let body = vars ts and head = Array.of_list (vars (snd c.head)) in
    let arity = List.length ts in
    if
      List.length body = arity
      && List.length (List.sort_uniq String.compare body) = arity
      && List.length (snd c.head) = arity
      && List.sort String.compare (Array.to_list head)
         = List.sort String.compare body
    then
      let rec position v i = if head.(i) = v then i else position v (i + 1) in
      let perm = Array.of_list (List.map (fun v -> position v 0) body) in
      let rec identity j = j = arity || (perm.(j) = j && identity (j + 1)) in
      Some { src; arity; perm; identity = identity 0 }
    else None
  | _ -> None

(* The largest ratio of estimated demand to estimated distinct keys at
   which a predicate is restricted, measured on paper-tables
   (EXPERIMENTS.md): restricting where the demand is every key only adds
   the magic relation's cost. *)
let guard = 0.5
let magic_prefix = "magic:"

let edb_atoms (q : Ndl.query) =
  let idb = Ndl.idb_preds q in
  List.concat_map
    (fun (c : Ndl.clause) ->
      List.filter_map
        (function
          | Ndl.Pred (p, ts) when not (Symbol.Set.mem p idb) ->
            Some (p, List.length ts)
          | Ndl.Pred _ | Ndl.Eq _ | Ndl.Dom _ -> None)
        c.body)
    q.clauses
  |> List.sort_uniq compare

(* Each head's clauses, in written order. *)
let by_head clauses =
  let tbl = Symbol.Tbl.create 16 in
  List.iter
    (fun (c : Ndl.clause) ->
      let p = fst c.head in
      Symbol.Tbl.replace tbl p
        (c :: Option.value ~default:[] (Symbol.Tbl.find_opt tbl p)))
    (List.rev clauses);
  fun p -> Option.value ~default:[] (Symbol.Tbl.find_opt tbl p)

(* Planner statistics over [relation] for EDB predicates and the estimates
   in [est] for IDB ones, which have no index to count keys with. *)
let stats ~relation ~arities ~domain est =
  let edb p =
    match Symbol.Tbl.find_opt arities p with
    | Some arity -> relation p arity
    | None -> None
  in
  {
    Plan.card =
      (fun p ->
        match Symbol.Tbl.find_opt est p with
        | Some rows -> int_of_float (Float.min rows 1e15)
        | None -> (
          match edb p with Some r -> r.Relation.size | None -> 0));
    distinct =
      (fun p probe ->
        if Symbol.Tbl.mem est p then None
        else
          match edb p with
          | Some r ->
            let probe = Array.of_list probe in
            if Relation.covers_row r probe then Some r.size
            else
              Option.map
                (fun (ix : Relation.index) -> ix.keys)
                (Relation.find_index r probe)
          | None -> None);
    transient = (fun _ -> false);
    domain;
  }

let plan stats (c : Ndl.clause) =
  let nvars, _, _, body = Plan.compile c in
  Plan.make stats ~nvars body

(* Estimate every predicate of [strata] (dependencies first) from its
   [clauses], into [est]; the tuples read by planning them all. *)
let estimate stats ~domain ~clauses est strata =
  let dom = float_of_int (max 1 domain) in
  List.fold_left
    (fun reads (preds, recursive) ->
      let arity p =
        match clauses p with
        | (c : Ndl.clause) :: _ -> List.length (snd c.head)
        | [] -> 0
      in
      let cap p = dom ** float_of_int (arity p) in
      if recursive then begin
        (* a fixpoint is estimated at its cap: its rounds are not planned *)
        List.iter (fun p -> Symbol.Tbl.replace est p (cap p)) preds;
        reads
      end
      else
        List.fold_left
          (fun reads p ->
            let rows, reads =
              List.fold_left
                (fun (rows, reads) c ->
                  let pl = plan stats c in
                  (rows +. pl.Plan.est_out, reads +. pl.est_reads))
                (0.0, reads) (clauses p)
            in
            Symbol.Tbl.replace est p (Float.min rows (cap p));
            reads)
          reads preds)
    0.0 strata

let transform ~goal_directed ~relation ~domain (q : Ndl.query) =
  let idb = Ndl.idb_preds q in
  let strata = Ndl.strata q in
  let arities = Symbol.Tbl.create 16 in
  List.iter
    (fun (p, arity) ->
      if not (Symbol.Tbl.mem arities p) then Symbol.Tbl.replace arities p arity)
    (edb_atoms q);
  let empty p arity =
    match relation p arity with Some r -> r.Relation.size = 0 | None -> true
  in
  (* 1. pruning: the productive predicates, stratum by stratum *)
  let productive = Symbol.Tbl.create 16 in
  let killer (c : Ndl.clause) =
    List.find_opt
      (function
        | Ndl.Pred (p, ts) ->
          if Symbol.Set.mem p idb then not (Symbol.Tbl.mem productive p)
          else empty p (List.length ts)
        | Ndl.Eq _ | Ndl.Dom _ -> false)
      c.body
  in
  let clauses_of = by_head q.clauses in
  List.iter
    (fun (preds, recursive) ->
      let rec grow () =
        let fresh =
          List.filter
            (fun p ->
              (not (Symbol.Tbl.mem productive p))
              && List.exists (fun c -> killer c = None) (clauses_of p))
            preds
        in
        List.iter (fun p -> Symbol.Tbl.replace productive p ()) fresh;
        if recursive && fresh <> [] then grow ()
      in
      grow ())
    strata;
  let dropped = ref [] in
  let live =
    List.filter
      (fun c ->
        match killer c with
        | None -> true
        | Some a ->
          dropped := (c, a) :: !dropped;
          false)
      q.clauses
  in
  let live_of = by_head live in
  (* 2. the predicates the roots reach through surviving clauses *)
  let needed = Symbol.Tbl.create 16 in
  let rec need p =
    if Symbol.Set.mem p idb && not (Symbol.Tbl.mem needed p) then begin
      Symbol.Tbl.replace needed p ();
      List.iter
        (fun (c : Ndl.clause) ->
          List.iter
            (function Ndl.Pred (p', _) -> need p' | Ndl.Eq _ | Ndl.Dom _ -> ())
            c.body)
        (live_of p)
    end
  in
  if goal_directed then need q.goal else Symbol.Set.iter need idb;
  let is_needed p = Symbol.Tbl.mem needed p in
  let skipped =
    List.filter_map
      (fun (preds, _) ->
        if List.exists is_needed preds || List.for_all (fun p -> live_of p = []) preds
        then None
        else Some preds)
      strata
  in
  let needed_strata =
    List.filter_map
      (fun (preds, recursive) ->
        match List.filter is_needed preds with
        | [] -> None
        | preds -> Some (preds, recursive))
      strata
  in
  (* 3. restriction, top-down over the needed strata *)
  let magic_of = Symbol.Tbl.create 16 and restricted = ref [] in
  let magic_clauses = ref [] in
  (* a restricted predicate's clause reads its demand first *)
  let with_magic (c : Ndl.clause) =
    match Symbol.Tbl.find_opt magic_of (fst c.head) with
    | Some (magic, positions) ->
      let args = List.map (List.nth (snd c.head)) positions in
      { c with body = Ndl.Pred (magic, args) :: c.body }
    | None -> c
  in
  (* a program naming a predicate like a demand one is not restricted *)
  let magic_free =
    Symbol.Set.for_all
      (fun p -> not (String.starts_with ~prefix:magic_prefix (Symbol.name p)))
      (Symbol.Set.union idb (Ndl.edb_preds q))
  in
  if goal_directed && magic_free then begin
    let recursive_pred = Symbol.Tbl.create 16 in
    List.iter
      (fun (preds, recursive) ->
        if recursive then
          List.iter (fun p -> Symbol.Tbl.replace recursive_pred p ()) preds)
      needed_strata;
    (* views: a non-recursive predicate other than the goal defined by one
       renaming, resolved down chains to the first predicate that is not
       one, as [perm] over that source *)
    let views = Symbol.Tbl.create 16 in
    let resolve = function
      | Ndl.Pred (p, ts) as a -> (
        match Symbol.Tbl.find_opt views p with
        | Some (src, perm) when Array.length perm = List.length ts ->
          let ts = Array.of_list ts in
          Ndl.Pred (src, List.init (Array.length perm) (fun j -> ts.(perm.(j))))
        | Some _ | None -> a)
      | (Ndl.Eq _ | Ndl.Dom _) as a -> a
    in
    List.iter
      (function
        | [ p ], false when not (Symbol.equal p q.goal) -> (
          match live_of p with
          | [ c ] -> (
            match renaming_of c with
            | Some rn ->
              let src, perm =
                match Symbol.Tbl.find_opt views rn.src with
                | Some (src, perm') ->
                  (src, Array.map (fun k -> rn.perm.(k)) perm')
                | None -> (rn.src, rn.perm)
              in
              Symbol.Tbl.replace views p (src, perm)
            | None -> ())
          | _ -> ())
        | _ -> ())
      needed_strata;
    let is_view p = Symbol.Tbl.mem views p in
    let resolved (c : Ndl.clause) = { c with body = List.map resolve c.body } in
    let est = Symbol.Tbl.create 16 in
    let stats = stats ~relation ~arities ~domain est in
    ignore
      (estimate stats ~domain est
         ~clauses:(fun p -> List.map resolved (live_of p))
         (List.filter_map
            (fun (preds, recursive) ->
              match List.filter (fun p -> not (is_view p)) preds with
              | [] -> None
              | preds -> Some (preds, recursive))
            needed_strata));
    let consumers = Symbol.Tbl.create 16 in
    Symbol.Tbl.iter
      (fun p () ->
        if not (is_view p) then
          List.iter
            (fun (c : Ndl.clause) ->
              List.iter
                (function
                  | Ndl.Pred (r, _) ->
                    Symbol.Tbl.replace consumers r
                      (1 + Option.value ~default:0 (Symbol.Tbl.find_opt consumers r))
                  | Ndl.Eq _ | Ndl.Dom _ -> ())
                (resolved c).body)
            (live_of p))
      needed;
    (* [r] is read through views, so it is not one *)
    let restrictable r =
      is_needed r
      && (not (Symbol.equal r q.goal))
      && (not (Symbol.Tbl.mem recursive_pred r))
      && Symbol.Tbl.find_opt consumers r = Some 1
      && not (Symbol.Tbl.mem magic_of r)
    in
    let consider (c : Ndl.clause) =
      let c = resolved c in
      let pl = plan stats c in
      let body = Array.of_list c.body in
      let rec walk i rows prefix steps order =
        match (steps, order) with
        | (s : Plan.step) :: steps, j :: order ->
          (match (s.atom, body.(j)) with
          | Plan.CPred (r, _), Ndl.Pred (_, ts) when i > 0 && s.probe <> [] && restrictable r ->
            let full = Option.value ~default:0.0 (Symbol.Tbl.find_opt est r) in
            let keys =
              Plan.distinct_keys stats r s.probe (stats.Plan.card r)
            in
            if rows <= guard *. keys then begin
              let magic = Symbol.intern (magic_prefix ^ Symbol.name r) in
              let args = List.map (List.nth ts) s.probe in
              magic_clauses :=
                { Ndl.head = (magic, args); body = List.rev prefix } :: !magic_clauses;
              Symbol.Tbl.replace magic_of r (magic, s.probe);
              Symbol.Tbl.replace est magic rows;
              restricted :=
                { pred = r; magic; positions = s.probe; demand = rows; keys; full }
                :: !restricted
            end
          | _ -> ());
          walk (i + 1) (rows *. s.est_matches) (body.(j) :: prefix) steps order
        | _ -> ()
      in
      walk 0 1.0 [] pl.Plan.steps pl.order
    in
    List.iter
      (function
        | [ p ], false when not (is_view p) ->
          List.iter (fun c -> consider (with_magic c)) (live_of p)
        | _ -> ())
      (List.rev needed_strata)
  end;
  let kept =
    List.filter_map
      (fun (c : Ndl.clause) ->
        if is_needed (fst c.head) then Some (with_magic c) else None)
      live
  in
  let query = { q with clauses = kept @ List.rev !magic_clauses } in
  let cost =
    lazy
      (let est = Symbol.Tbl.create 16 in
       estimate
         (stats ~relation ~arities ~domain est)
         ~domain est ~clauses:(by_head query.clauses) (Ndl.strata query))
  in
  {
    query;
    dropped = List.rev !dropped;
    skipped;
    restricted = List.rev !restricted;
    cost;
  }
