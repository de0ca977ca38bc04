(* The inputs of the paper's experiments (Section 6 and Appendix D):
   the ontology of Example 11, the three query sequences of Fig. 2 and the
   Erdős–Rényi datasets of Table 2, generated from the workload seed. *)

module Tbox = Obda_ontology.Tbox
module Role = Obda_syntax.Role
module Symbol = Obda_syntax.Symbol
module Generate = Obda_data.Generate

(* Example 11: P ⊑ S and P ⊑ R⁻ *)
let ontology_text = "P(x,y) -> S(x,y)\nP(x,y) -> R(y,x)\n"

let sequences =
  [ (1, "RRSRSRSRRSRRSSR"); (2, "SRRRRRSRSRRRRRR"); (3, "SRRSSRSRSRRSRRS") ]

(* The linear CQ over the first [n] letters, answer variables x0 and xn,
   in the textual query format. *)
let prefix_query letters n =
  let atoms =
    List.init n (fun i ->
        Printf.sprintf "%c(x%d,x%d)" letters.[i] i (i + 1))
  in
  Printf.sprintf "q(x0,x%d) <- %s" n (String.concat ", " atoms)

(* The generator seed of the paper tables' fixed instances. *)
let default_seed = 42

(* Table 2 dataset [name] at [scale], with the marker concepts of the
   normalised ontology (∃P, ∃P⁻) as the generator's concepts. *)
let generate ~seed ~scale tbox name =
  let params = Generate.scale scale (List.assoc name Generate.table2_params) in
  let marker r = Tbox.exists_name tbox (Role.of_string r) in
  Generate.erdos_renyi ~seed ~edge_pred:(Symbol.intern "R")
    ~concepts:[ marker "P"; marker "P-" ]
    params
