open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_chase
module Ndl = Obda_ndl.Ndl
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs

let disjoint_atoms t1 t2 =
  not
    (List.exists
       (fun a -> List.exists (fun b -> Cq.compare_atom a b = 0) t2)
       t1)

let independent_subsets ?(budget = Budget.none) ~limit witnesses =
  let count = ref 0 in
  let rec go chosen = function
    | [] ->
      incr count;
      Budget.step budget;
      if !count > limit then
        raise
          (Error.Obda_error
             (Error.Budget_exhausted { resource = Size; spent = !count; limit }));
      [ chosen ]
    | (t : Tree_witness.t) :: rest ->
      let without = go chosen rest in
      if List.for_all (fun t' -> disjoint_atoms t.atoms t'.Tree_witness.atoms) chosen
      then go (t :: chosen) rest @ without
      else without
  in
  go [] witnesses

let rewrite ?(budget = Budget.none) ?(max_subsets = 100_000) tbox q =
  Obs.with_span "rewrite.presto" (fun () ->
  let witnesses =
    Tree_witness.enumerate tbox q
    |> List.filter (fun (t : Tree_witness.t) -> t.roots <> [])
  in
  let goal = Symbol.fresh "GPresto" in
  let goal_args = Cq.answer_vars q in
  let params = ref (Symbol.Map.singleton goal (List.length goal_args)) in
  let clauses = ref [] in
  let emit c =
    Fault.hit Fault.rewrite_presto_emit;
    Obs.incr "ndl.clauses_emitted";
    Obs.count "ndl.atoms_emitted" (1 + List.length c.Ndl.body);
    clauses := c :: !clauses
  in
  (* one auxiliary predicate per witness *)
  let tw_pred =
    List.mapi
      (fun i (t : Tree_witness.t) ->
        let p = Symbol.fresh (Printf.sprintf "TW%d" i) in
        params := Symbol.Map.add p 0 !params;
        let head = (p, List.map (fun v -> Ndl.Var v) t.roots) in
        let z0 = List.hd t.roots in
        let eqs =
          List.map (fun z -> Ndl.Eq (Ndl.Var z, Ndl.Var z0)) (List.tl t.roots)
        in
        List.iter
          (fun rho ->
            let arho = Tbox.exists_name tbox rho in
            emit { Ndl.head; body = Ndl.Pred (arho, [ Ndl.Var z0 ]) :: eqs })
          t.generators;
        (t, p))
      witnesses
  in
  (* a Boolean query may map entirely into the anonymous part: one clause
     per unary predicate whose single assertion entails the query *)
  if Cq.is_boolean q then begin
    let candidates =
      Tbox.concept_names tbox
      @ List.filter_map
          (function Cq.Unary (a, _) -> Some a | Cq.Binary _ -> None)
          (Cq.atoms q)
      |> List.sort_uniq Symbol.compare
    in
    List.iter
      (fun a ->
        if Certain.entailed_from_concept tbox (Concept.Name a) q then
          emit
            { Ndl.head = (goal, []); body = [ Ndl.Pred (a, [ Ndl.Var "u" ]) ] })
      candidates
  end;
  (* one goal clause per independent set of witnesses *)
  let subsets = independent_subsets ~budget ~limit:max_subsets witnesses in
  List.iter
    (fun subset ->
      Budget.grow budget;
      let covered =
        List.concat_map (fun (t : Tree_witness.t) -> t.atoms) subset
      in
      let rest =
        List.filter
          (fun a -> not (List.exists (fun b -> Cq.compare_atom a b = 0) covered))
          (Cq.atoms q)
      in
      let rest_atoms =
        List.map
          (function
            | Cq.Unary (a, z) -> Ndl.Pred (a, [ Ndl.Var z ])
            | Cq.Binary (p, y, z) -> Ndl.Pred (p, [ Ndl.Var y; Ndl.Var z ]))
          rest
      in
      let tw_atoms =
        List.map
          (fun (t : Tree_witness.t) ->
            let p = List.assq t tw_pred in
            Ndl.Pred (p, List.map (fun v -> Ndl.Var v) t.roots))
          subset
      in
      let body = rest_atoms @ tw_atoms in
      let body_vars = List.concat_map Ndl.atom_vars body in
      let missing =
        List.filter_map
          (fun v ->
            if List.mem v body_vars then None else Some (Ndl.Dom (Ndl.Var v)))
          goal_args
      in
      emit
        {
          Ndl.head = (goal, List.map (fun v -> Ndl.Var v) goal_args);
          body = body @ missing;
        })
    subsets;
  Ndl.observe (Ndl.make ~params:!params ~goal ~goal_args (List.rev !clauses)))
