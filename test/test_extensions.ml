(* Tests for the extension modules: PE-rewritings (Fig. 1(b)), ⊥-aware NDL
   rewritings (the Section 2 remark), and the cost-based adaptive strategy
   (the Section 6 future-work discussion). *)

open Obda_syntax
open Obda_ontology
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Pe_rewriter = Obda_rewriting.Pe_rewriter
module Consistency = Obda_rewriting.Consistency
module Adaptive = Obda_rewriting.Adaptive
open Helpers

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* PE-rewriting *)

let pe_agreement =
  QCheck.Test.make ~count:30 ~name:"PE-rewriting agrees with chase"
    QCheck.(pair (int_bound 1000) (int_range 1 5))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i -> if (seed + i) mod 3 = 0 then "S" else "R")
      in
      let q = word_cq letters in
      let omq = Omq.make t q in
      let formula = Pe_rewriter.rewrite t q in
      let abox =
        random_abox ~seed ~consts:6
          ~unary:
            [ Symbol.name (Tbox.exists_name t (role "P"));
              Symbol.name (Tbox.exists_name t (role "P-")) ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:12
      in
      let expected = certain_answers omq abox in
      let got = show_tuples (Pe_rewriter.certain_answers t q formula abox) in
      expected = got)

let pe_growth () =
  (* the PE-rewriting grows super-linearly on sequence 1 while the NDL ones
     stay linear — the Fig. 1(b) succinctness gap in miniature *)
  let t = example11_tbox () in
  let size_at n =
    let letters = List.init n (fun i -> String.make 1 "RRSRSRSRRSRRSSR".[i]) in
    Obda_reductions.Pe.size (Pe_rewriter.rewrite t (word_cq letters))
  in
  let s6 = size_at 6 and s12 = size_at 12 in
  check "superlinear growth" true (s12 > 3 * s6);
  let ndl_at n =
    let letters = List.init n (fun i -> String.make 1 "RRSRSRSRRSRRSSR".[i]) in
    Ndl.num_clauses (Omq.rewrite Omq.Lin (Omq.make t (word_cq letters)))
  in
  let n6 = ndl_at 6 and n12 = ndl_at 12 in
  check "NDL stays linear" true (n12 <= (2 * n6) + 8)

let pe_matrix_depth () =
  let t = example11_tbox () in
  let f = Pe_rewriter.rewrite t (example8_cq ()) in
  check "matrix depth small" true (Pe_rewriter.matrix_depth f <= 4)

(* ------------------------------------------------------------------ *)
(* ⊥-aware rewriting *)

let bottom_tbox () =
  Tbox.make
    [
      Tbox.Role_incl (role "P", role "S");
      Tbox.Concept_disj (Concept.Name (sym "A"), Concept.Name (sym "B"));
      Tbox.Concept_disj
        (Concept.Name (sym "A"), Concept.Exists (role "S"));
      Tbox.Irreflexive (role "S");
    ]

let consistency_query_detects () =
  let t = bottom_tbox () in
  let q = Consistency.query t in
  check "consistent data: no" false
    (Eval.boolean q (abox_of_facts [ `U ("A", "c1"); `U ("B", "c2") ]));
  check "A,B clash detected" true
    (Eval.boolean q (abox_of_facts [ `U ("A", "c1"); `U ("B", "c1") ]));
  check "A ∧ ∃S clash detected" true
    (Eval.boolean q (abox_of_facts [ `U ("A", "c1"); `B ("S", "c1", "c2") ]));
  check "A ∧ ∃S via subrole P" true
    (Eval.boolean q (abox_of_facts [ `U ("A", "c1"); `B ("P", "c1", "c2") ]));
  check "irreflexive S violated via P(c,c)" true
    (Eval.boolean q (abox_of_facts [ `B ("P", "c1", "c1") ]))

let guarded_rewriting_matches_answer =
  QCheck.Test.make ~count:25
    ~name:"⊥-guarded rewriting = Omq.answer on any data"
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, n) ->
      let t = bottom_tbox () in
      let letters = List.init n (fun _ -> "S") in
      let q = word_cq ~answer:`First letters in
      let omq = Omq.make t q in
      let abox =
        random_abox ~seed ~consts:5 ~unary:[ "A"; "B" ] ~binary:[ "S"; "P" ]
          ~unary_atoms:3 ~binary_atoms:6
      in
      let guarded = Omq.rewrite ~consistency:true Omq.Tw omq in
      let via_guard = show_tuples (Eval.answers guarded abox) in
      let via_answer = answers_via Omq.Tw omq abox in
      via_guard = via_answer)

(* ------------------------------------------------------------------ *)
(* adaptive strategy *)

let adaptive_agrees =
  QCheck.Test.make ~count:20 ~name:"adaptive choice agrees with chase"
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i -> if (seed + i) mod 4 = 0 then "S" else "R")
      in
      let q = word_cq letters in
      let omq = Omq.make t q in
      let abox =
        random_abox ~seed ~consts:6
          ~unary:[ Symbol.name (Tbox.exists_name t (role "P-")) ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:12
      in
      show_tuples (Adaptive.answer t q abox) = certain_answers omq abox)

let adaptive_candidates () =
  let t = example11_tbox () in
  let q = example8_cq () in
  let abox =
    random_abox ~seed:1 ~consts:10 ~unary:[] ~binary:[ "R" ] ~unary_atoms:0
      ~binary_atoms:30
  in
  let cands = Adaptive.candidates t q abox in
  check "several candidates" true (List.length cands >= 4);
  check "sorted by cost" true
    (let rec sorted = function
       | (a : Adaptive.candidate) :: (b :: _ as rest) ->
         a.Adaptive.cost <= b.Adaptive.cost && sorted rest
       | _ -> true
     in
     sorted cands);
  check "costs finite" true
    (List.for_all
       (fun (c : Adaptive.candidate) -> Float.is_finite c.Adaptive.cost)
       cands)

(* The query reads S, so over R alone every clause is dropped and there is
   nothing to cost; over R and S more data costs more. *)
let cost_model_sanity () =
  let t = example11_tbox () in
  let q = example8_cq () in
  let abox ~consts ~binary_atoms binary =
    random_abox ~seed:2 ~consts ~unary:[] ~binary ~unary_atoms:0 ~binary_atoms
  in
  let small = abox ~consts:5 ~binary_atoms:10 [ "R"; "S" ] in
  let big = abox ~consts:20 ~binary_atoms:300 [ "R"; "S" ] in
  let r_only = abox ~consts:20 ~binary_atoms:300 [ "R" ] in
  let lin = Omq.rewrite Omq.Lin (Omq.make t q) in
  let cost abox =
    let d =
      Obda_ndl.Demand.transform ~goal_directed:true
        ~relation:(fun p arity -> Obda_data.Abox.relation abox p ~arity)
        ~domain:(Obda_data.Abox.num_individuals abox)
        lin
    in
    Lazy.force d.Obda_ndl.Demand.cost
  in
  check "no S: nothing to evaluate" true (cost r_only = 0.);
  check "more data costs more" true (cost big > cost small && cost small > 0.)

let suites =
  [
    ( "extensions",
      [
        QCheck_alcotest.to_alcotest pe_agreement;
        Alcotest.test_case "PE growth vs NDL growth" `Quick pe_growth;
        Alcotest.test_case "PE matrix depth" `Quick pe_matrix_depth;
        Alcotest.test_case "consistency query" `Quick consistency_query_detects;
        QCheck_alcotest.to_alcotest guarded_rewriting_matches_answer;
        QCheck_alcotest.to_alcotest adaptive_agrees;
        Alcotest.test_case "adaptive candidates" `Quick adaptive_candidates;
        Alcotest.test_case "cost model sanity" `Quick cost_model_sanity;
      ] );
  ]
