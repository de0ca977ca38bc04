open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_chase
module Ndl = Obda_ndl.Ndl
module Budget = Obda_runtime.Budget
module Fault = Obda_runtime.Fault
module Error = Obda_runtime.Error
module Obs = Obda_obs.Obs
module CqMap = Map.Make (Cq)

type state = {
  tbox : Tbox.t;
  x0 : Cq.var list;  (* the answer variables of the original OMQ *)
  budget : Budget.t;
  mutable preds : Symbol.t CqMap.t;
  mutable clauses : Ndl.clause list;
  mutable params : int Symbol.Map.t;
  mutable counter : int;
}

let fresh_pred st =
  st.counter <- st.counter + 1;
  Symbol.fresh (Printf.sprintf "Gtw%d" st.counter)

(* Head/argument convention: the answer variables of a subquery, with the
   parameters (variables of x0) in trailing positions. *)
let args_of st q =
  let xs = Cq.answer_vars q in
  let ps, nps = List.partition (fun v -> List.mem v st.x0) xs in
  (nps @ ps, List.length ps)

let emit st c =
  Fault.hit Fault.rewrite_tw_emit;
  Budget.step st.budget;
  Budget.grow ~by:(1 + List.length c.Ndl.body) st.budget;
  Obs.incr "ndl.clauses_emitted";
  Obs.count "ndl.atoms_emitted" (1 + List.length c.Ndl.body);
  st.clauses <- c :: st.clauses

(* the splitting vertex z_q: a balancing existential variable (Lemma 14,
   restricted to existential candidates so that recursion always shrinks) *)
let splitting_var q =
  let g = Cq.gaifman q in
  let all = Cq.vars q in
  let candidates = Cq.existential_vars q in
  let comp_score v =
    let rest = List.filter (fun u -> u <> v) all in
    let rest_idx = List.map (Cq.var_index q) rest in
    List.fold_left
      (fun acc comp -> max acc (List.length comp))
      0
      (Ugraph.components_within g rest_idx)
  in
  match candidates with
  | [] -> invalid_arg "Tw_rewriter.splitting_var: no existential variable"
  | v0 :: _ ->
    List.fold_left
      (fun (bv, bs) v ->
        let s = comp_score v in
        if s < bs then (v, s) else (bv, bs))
      (v0, comp_score v0)
      candidates
    |> fst

let unary_pred_candidates st q =
  let from_tbox = Tbox.concept_names st.tbox in
  let from_q =
    List.filter_map
      (function Cq.Unary (a, _) -> Some a | Cq.Binary _ -> None)
      (Cq.atoms q)
  in
  List.sort_uniq Symbol.compare (from_tbox @ from_q)

(* [tws] are the tree witnesses of the component of the original CQ that [q]
   is a subquery of: [q] keeps every atom of each of its existential
   variables, so its own witnesses are those of [tws] inside them. *)
let rec pred_for st tws q =
  match CqMap.find_opt q st.preds with
  | Some p -> p
  | None ->
    let p = fresh_pred st in
    st.preds <- CqMap.add q p st.preds;
    build st tws q p;
    p

and build st tws q p =
  let args, nparams = args_of st q in
  st.params <- Symbol.Map.add p nparams st.params;
  let head = (p, List.map (fun v -> Ndl.Var v) args) in
  if Cq.existential_vars q = [] then
    (* no existential variables: evaluate the atoms directly *)
    emit st
      {
        Ndl.head;
        body =
          List.map
            (fun atom ->
              match atom with
              | Cq.Unary (a, z) -> Ndl.Pred (a, [ Ndl.Var z ])
              | Cq.Binary (b, y, z) -> Ndl.Pred (b, [ Ndl.Var y; Ndl.Var z ]))
            (Cq.atoms q);
      }
  else begin
    let zq = splitting_var q in
    let x = Cq.answer_vars q in
    (* --- clause mapping z_q to an individual --- *)
    let g = Cq.gaifman q in
    let rest =
      List.filter (fun v -> v <> zq) (Cq.vars q) |> List.map (Cq.var_index q)
    in
    let branches = Ugraph.components_within g rest in
    let sub_atom_calls =
      List.map
        (fun branch ->
          let branch_vars =
            List.map (Cq.var_of_index q) branch |> List.sort_uniq String.compare
          in
          let atoms_i =
            List.filter
              (fun atom ->
                List.exists (fun v -> List.mem v branch_vars) (Cq.atom_vars atom))
              (Cq.atoms q)
          in
          let qi = Cq.restrict_to q ~answer:(x @ [ zq ]) atoms_i in
          let pi = pred_for st tws qi in
          let args_i, _ = args_of st qi in
          Ndl.Pred (pi, List.map (fun v -> Ndl.Var v) args_i))
        branches
    in
    let zq_atoms =
      List.map (fun a -> Ndl.Pred (a, [ Ndl.Var zq ])) (Cq.unary_atoms_of q zq)
      @ List.map
          (fun b -> Ndl.Pred (b, [ Ndl.Var zq; Ndl.Var zq ]))
          (Cq.loop_atoms_of q zq)
    in
    let body1 = zq_atoms @ sub_atom_calls in
    let body1 = if body1 = [] then [ Ndl.Dom (Ndl.Var zq) ] else body1 in
    emit st { Ndl.head; body = body1 };
    (* --- clauses mapping z_q into the anonymous part, via tree witnesses --- *)
    List.iter
      (fun (t : Tree_witness.t) ->
        if t.roots <> [] && List.mem zq t.interior then begin
          let z0 = List.hd t.roots in
          let eqs =
            List.map (fun z -> Ndl.Eq (Ndl.Var z, Ndl.Var z0)) (List.tl t.roots)
          in
          let remaining =
            List.filter
              (fun atom -> not (List.mem atom t.atoms))
              (Cq.atoms q)
          in
          let component_calls =
            if remaining = [] then []
            else
              let answer =
                x @ List.filter (fun r -> not (List.mem r x)) t.roots
              in
              let rest_q = Cq.restrict_to q ~answer remaining in
              List.map
                (fun comp ->
                  let pc = pred_for st tws comp in
                  let args_c, _ = args_of st comp in
                  Ndl.Pred (pc, List.map (fun v -> Ndl.Var v) args_c))
                (Cq.connected_components rest_q)
          in
          List.iter
            (fun rho ->
              let arho = Tbox.exists_name st.tbox rho in
              emit st
                {
                  Ndl.head;
                  body =
                    (Ndl.Pred (arho, [ Ndl.Var z0 ]) :: eqs) @ component_calls;
                })
            t.generators
        end)
      (Tree_witness.within tws q);
    (* --- Boolean subqueries may map entirely into the anonymous part --- *)
    if x = [] then
      List.iter
        (fun a ->
          if Certain.entailed_from_concept st.tbox (Concept.Name a) q then
            emit st
              { Ndl.head = (p, []); body = [ Ndl.Pred (a, [ Ndl.Var "u" ]) ] })
        (unary_pred_candidates st q)
  end

let rewrite ?(budget = Budget.none) tbox q0 =
  Obs.with_span "rewrite.tw" (fun () ->
  let components = Cq.connected_components q0 in
  List.iter
    (fun c ->
      if not (Cq.is_tree_shaped c) then
        Error.not_applicable ~algorithm:"Tw" "CQ is not tree-shaped")
    components;
  let st =
    {
      tbox;
      x0 = Cq.answer_vars q0;
      budget;
      preds = CqMap.empty;
      clauses = [];
      params = Symbol.Map.empty;
      counter = 0;
    }
  in
  let goal = Symbol.fresh "GTw" in
  let calls =
    List.map
      (fun c ->
        let tws =
          if Cq.existential_vars c = [] then []
          else Tree_witness.enumerate tbox c
        in
        let pc = pred_for st tws c in
        let args_c, _ = args_of st c in
        Ndl.Pred (pc, List.map (fun v -> Ndl.Var v) args_c))
      components
  in
  let goal_args = Cq.answer_vars q0 in
  emit st
    { Ndl.head = (goal, List.map (fun v -> Ndl.Var v) goal_args); body = calls };
  let params =
    Symbol.Map.add goal (List.length goal_args) st.params
  in
  Ndl.observe (Ndl.make ~params ~goal ~goal_args (List.rev st.clauses)))
