open Obda_ontology
open Obda_cq
open Obda_data
module Pe = Obda_reductions.Pe
module Obs = Obda_obs.Obs

let rec matrix_depth = function
  | Pe.Atom1 _ | Pe.Atom2 _ | Pe.Eqt _ -> 0
  | Pe.And fs | Pe.Or fs ->
    1 + List.fold_left (fun acc f -> max acc (matrix_depth f)) 0 fs
  | Pe.Exists (_, f) -> matrix_depth f

(* ------------------------------------------------------------------ *)
(* Construction: ⋁ over independent tree-witness sets *)

let atom = function
  | Cq.Unary (a, z) -> Pe.Atom1 (a, Pe.Var z)
  | Cq.Binary (p, y, z) -> Pe.Atom2 (p, Pe.Var y, Pe.Var z)

let tw_formula tbox (t : Tree_witness.t) =
  let z0 = Pe.Var (List.hd t.roots) in
  let eqs = List.map (fun z -> Pe.Eqt (Pe.Var z, z0)) (List.tl t.roots) in
  Pe.Or
    (List.map
       (fun rho -> Pe.And (Pe.Atom1 (Tbox.exists_name tbox rho, z0) :: eqs))
       t.generators)

let rewrite ?(max_subsets = 100_000) tbox q =
  Obs.with_span "rewrite.pe" (fun () ->
      let witnesses =
        Tree_witness.enumerate tbox q
        |> List.filter (fun (t : Tree_witness.t) -> t.roots <> [])
      in
      let subsets =
        Presto_like.independent_subsets ~limit:max_subsets witnesses
      in
      let disjuncts =
        List.map
          (fun subset ->
            let covered =
              List.concat_map (fun (t : Tree_witness.t) -> t.atoms) subset
            in
            let rest =
              List.filter
                (fun a ->
                  not (List.exists (fun b -> Cq.compare_atom a b = 0) covered))
                (Cq.atoms q)
            in
            Pe.And (List.map atom rest @ List.map (tw_formula tbox) subset))
          subsets
      in
      let formula = Pe.Or disjuncts in
      if Obs.enabled () then begin
        Obs.set_int "pe.size" (Pe.size formula);
        Obs.set_int "pe.depth" (matrix_depth formula)
      end;
      formula)

let certain_answers tbox q formula abox =
  Pe.all_bindings (Abox.complete tbox abox) ~vars:(Cq.answer_vars q) formula
