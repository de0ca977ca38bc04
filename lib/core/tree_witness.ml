open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_chase

type t = {
  roots : Cq.var list;
  interior : Cq.var list;
  atoms : Cq.atom list;
  generators : Role.t list;
}

let pp ppf t =
  Format.fprintf ppf "tw(roots={%s}, interior={%s}, gen={%s})"
    (String.concat "," t.roots)
    (String.concat "," t.interior)
    (String.concat "," (List.map Role.to_string t.generators))

(* ------------------------------------------------------------------ *)
(* Rejecting a candidate cheaply.  A homomorphism of q_t into
   C_{T,{A_ρ(a)}} that sends the roots to a and the interior to nulls
   assigns each interior variable the last letter σ of its image, and:
   - A(z) needs T ⊨ ∃σ⁻ ⊑ A, and P(z,z) a reflexive P;
   - P(r,z) with r a root needs z ↦ a·σ, with σ ⊑ P and ∃σ entailed at a;
   - P(y,z) over two interior variables needs their images equal (same
     letter, P reflexive) or parent and child (the child's letter follows
     the parent's and is ⊑ P, resp. ⊑ P⁻).
   Arc consistency over these letter domains is a necessary condition, so
   a candidate it empties is no witness; survivors go to [Certain.find_hom]. *)

type letters = {
  roles : Role.t array;
  start : bool array;  (* σ may be a letter at all: T ⊭ σ(x,x) *)
  follow : bool array array Lazy.t;  (* [can_follow σ σ'] *)
  sat : bool array Symbol.Tbl.t;  (* per A: T ⊨ ∃σ⁻ ⊑ A *)
  edge : bool array Role.Tbl.t;  (* per ρ: σ ⊑ ρ *)
  compat : bool array array Symbol.Tbl.t;  (* per P: σ, σ' may satisfy P *)
}

let letters tbox =
  let roles = Array.of_list (Tbox.roles tbox) in
  let n = Array.length roles in
  {
    roles;
    start = Array.map (Tbox.can_start tbox) roles;
    follow =
      lazy
        (Array.init n (fun i ->
             Array.init n (fun j -> Tbox.can_follow tbox roles.(i) roles.(j))));
    sat = Symbol.Tbl.create 8;
    edge = Role.Tbl.create 8;
    compat = Symbol.Tbl.create 8;
  }

let memo tbl key f =
  match Symbol.Tbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f key in
    Symbol.Tbl.add tbl key v;
    v

let edge tbox l rho =
  match Role.Tbl.find_opt l.edge rho with
  | Some v -> v
  | None ->
    let v = Array.map (fun sigma -> Tbox.edge_satisfies tbox sigma rho) l.roles in
    Role.Tbl.add l.edge rho v;
    v

let compat tbox l p =
  memo l.compat p (fun p ->
      let rho = Role.make p in
      let refl = Tbox.reflexive tbox rho in
      let fwd = edge tbox l rho and bwd = edge tbox l (Role.inv rho) in
      let follow = Lazy.force l.follow in
      Array.init (Array.length l.roles) (fun i ->
          Array.init (Array.length l.roles) (fun j ->
              (i = j && refl)
              || (follow.(i).(j) && fwd.(j))
              || (follow.(j).(i) && bwd.(i)))))

(* The letter constraints of one candidate, whose interior variable [v]
   has position [local.(v)] ([-1] off the interior), over its atoms with
   their variable indices: per interior variable its domain and whether it
   is next to a root, and the interior-interior atoms as (position,
   position, P); [None] when a loop atom has no reflexive predicate. *)
let constraints tbox l ~local ~size atoms =
  let dom = Array.init size (fun _ -> Array.copy l.start) in
  let near_root = Array.make size false in
  let restrict i allowed =
    Array.iteri (fun s ok -> if not ok then dom.(i).(s) <- false) allowed
  in
  let pairs = ref [] and loops_ok = ref true in
  List.iter
    (fun (atom, vs) ->
      match (atom, vs) with
      | Cq.Unary (a, _), [ z ] ->
        restrict local.(z)
          (memo l.sat a (fun a ->
               Array.map (fun sigma -> Tbox.null_satisfies tbox sigma a) l.roles))
      | Cq.Binary (p, _, _), [ _ ] ->
        if not (Tbox.reflexive tbox (Role.make p)) then loops_ok := false
      | Cq.Binary (p, _, _), [ y; z ] -> (
        match (local.(y), local.(z)) with
        | -1, j ->
          near_root.(j) <- true;
          restrict j (edge tbox l (Role.make p))
        | i, -1 ->
          near_root.(i) <- true;
          restrict i (edge tbox l (Role.inv (Role.make p)))
        | i, j -> pairs := (i, j, p) :: !pairs)
      | (Cq.Unary _ | Cq.Binary _), _ -> assert false)
    atoms;
  if !loops_ok then Some (dom, near_root, List.rev !pairs) else None

(* Arc consistency over the letter domains (updated in place): false when a
   domain empties. *)
let arc_consistent tbox l dom pairs =
  let n = Array.length l.roles in
  let revise di dj ok =
    let changed = ref false in
    for s = 0 to n - 1 do
      if di.(s) then begin
        let supported = ref false in
        for s' = 0 to n - 1 do
          if dj.(s') && ok s s' then supported := true
        done;
        if not !supported then begin
          di.(s) <- false;
          changed := true
        end
      end
    done;
    !changed
  in
  let nonempty d = Array.exists Fun.id d in
  let rec loop () =
    let changed =
      List.fold_left
        (fun changed (i, j, p) ->
          let c = compat tbox l p in
          let a = revise dom.(i) dom.(j) (fun s s' -> c.(s).(s')) in
          let b = revise dom.(j) dom.(i) (fun s s' -> c.(s').(s)) in
          changed || a || b)
        false pairs
    in
    if not (Array.for_all nonempty dom) then false
    else if changed then loop ()
    else true
  in
  loop ()

(* ------------------------------------------------------------------ *)

(* C_{T,{A_ρ(a)}} to a depth, with the last letters of its nulls and of its
   depth-1 nulls *)
type model = { canon : Canonical.t; present : bool array; first : bool array }

let model_of tbox l rho depth =
  let canon = Canonical.of_concept tbox (Concept.Exists rho) ~depth in
  let n = Array.length l.roles in
  let present = Array.make n false and first = Array.make n false in
  let mark arr sigma =
    Array.iteri (fun s r -> if Role.equal r sigma then arr.(s) <- true) l.roles
  in
  List.iter
    (function
      | Canonical.Null (_, [ sigma ]) ->
        mark present sigma;
        mark first sigma
      | Canonical.Null (_, sigma :: _) -> mark present sigma
      | Canonical.Null (_, []) | Canonical.Ind _ -> ())
    (Canonical.elements canon);
  { canon; present; first }

let generators_of tbox l model q ~local ~roots ~interior ~atoms =
  match constraints tbox l ~local ~size:(List.length interior) atoms with
  | None -> []
  | Some (dom, near_root, pairs) ->
    if not (arc_consistent tbox l (Array.map Array.copy dom) pairs) then []
    else
      let qt =
        (* the subquery q_t, with no answer variables: pinning is done via
           the homomorphism constraints below *)
        lazy (Cq.restrict_to q ~answer:[] (List.map fst atoms))
      in
      let depth = List.length interior + 1 in
      List.filter
        (fun rho ->
          match Tbox.exists_name_opt tbox rho with
          | None -> false
          | Some _ ->
            let m = model rho depth in
            let dom =
              Array.mapi
                (fun i d ->
                  Array.mapi
                    (fun s ok ->
                      ok && m.present.(s) && ((not near_root.(i)) || m.first.(s)))
                    d)
                dom
            in
            arc_consistent tbox l dom pairs
            &&
            let root = Canonical.root_of_concept_model m.canon in
            let pin = List.map (fun v -> (v, root)) roots in
            let admissible v e =
              if List.mem v interior then
                match e with Canonical.Null _ -> true | Canonical.Ind _ -> false
              else true
            in
            Certain.find_hom ~pin ~admissible m.canon (Lazy.force qt) <> None)
        (Tbox.roles tbox)

let enumerate ?(limit = 100_000) tbox q =
  let g = Cq.gaifman q in
  let existential_indices =
    List.map (Cq.var_index q) (Cq.existential_vars q)
  in
  let candidate_sets = Ugraph.connected_subsets g existential_indices ~limit in
  (* variable indices follow the sorted variable names *)
  let names = Array.of_list (Cq.vars q) in
  let indexed =
    List.map (fun a -> (a, List.map (Cq.var_index q) (Cq.atom_vars a))) (Cq.atoms q)
  in
  let local = Array.make (Array.length names) (-1) in
  let l = letters tbox in
  (* each (ρ, depth) model is built once per call, and only when a
     candidate of that depth passes the letter test *)
  let models = Hashtbl.create 16 in
  let model rho depth =
    match Hashtbl.find_opt models (rho, depth) with
    | Some m -> m
    | None ->
      let m = model_of tbox l rho depth in
      Hashtbl.add models (rho, depth) m;
      m
  in
  let witnesses =
    List.filter_map
      (fun indices ->
        List.iteri (fun i v -> local.(v) <- i) indices;
        (* q_t: the atoms with a variable in the interior; the roots are
           their other variables *)
        let atoms =
          List.filter (fun (_, vs) -> List.exists (fun v -> local.(v) >= 0) vs) indexed
        in
        let name v = names.(v) in
        let roots =
          List.concat_map snd atoms
          |> List.filter (fun v -> local.(v) < 0)
          |> List.sort_uniq Int.compare |> List.map name
        in
        let interior = List.map name indices in
        let generators = generators_of tbox l model q ~local ~roots ~interior ~atoms in
        List.iter (fun v -> local.(v) <- -1) indices;
        match generators with
        | [] -> None
        | generators -> Some { roots; interior; atoms = List.map fst atoms; generators })
      candidate_sets
  in
  Obda_obs.Obs.count "rewrite.tree_witnesses" (List.length witnesses);
  witnesses

let within witnesses q =
  let existential = Cq.existential_vars q in
  List.filter
    (fun t -> List.for_all (fun v -> List.mem v existential) t.interior)
    witnesses
