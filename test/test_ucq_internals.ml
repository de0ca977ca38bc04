(* Focused tests of the PerfectRef-style UCQ rewriter and related pieces:
   subsumption, condensation, determinism, limits — plus parser round-trips
   on random ontologies and distribution checks for the data generator. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
module Ucq = Obda_rewriting.Ucq_rewriter
module Ndl = Obda_ndl.Ndl
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* subsumption *)

let test_subsumes () =
  let q1 = Cq.make ~answer:[ "x" ] [ Cq.Binary (sym "R", "x", "y") ] in
  let q2 =
    Cq.make ~answer:[ "x" ]
      [ Cq.Binary (sym "R", "x", "y"); Cq.Unary (sym "A", "y") ]
  in
  check "more general subsumes more specific" true (Ucq.subsumes q1 q2);
  check "not vice versa" false (Ucq.subsumes q2 q1);
  let q3 = Cq.make ~answer:[ "x" ] [ Cq.Binary (sym "R", "x", "x") ] in
  check "R(x,y) subsumes R(x,x)" true (Ucq.subsumes q1 q3);
  check "R(x,x) does not subsume R(x,y)" false (Ucq.subsumes q3 q1);
  let q4 = Cq.make ~answer:[ "y" ] [ Cq.Binary (sym "R", "y", "z") ] in
  (* answer tuples are positional: q1 and q4 are the same query renamed *)
  check "alpha-equivalent queries subsume each other" true
    (Ucq.subsumes q1 q4 && Ucq.subsumes q4 q1)

let test_subsumes_respects_answers () =
  let q1 = Cq.make ~answer:[ "x"; "y" ] [ Cq.Binary (sym "R", "x", "y") ] in
  let q2 = Cq.make ~answer:[ "y"; "x" ] [ Cq.Binary (sym "R", "x", "y") ] in
  (* the answer tuples are reversed: no positional homomorphism on R *)
  check "reversed answers differ" false (Ucq.subsumes q1 q2)

(* ------------------------------------------------------------------ *)
(* rewriter behaviour *)

let test_deterministic () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S"; "R" ] in
  let c1 = List.length (Ucq.rewrite_cqs t q) in
  let c2 = List.length (Ucq.rewrite_cqs t q) in
  check_int "deterministic CQ count" c1 c2

let test_includes_original () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S" ] in
  let cqs = Ucq.rewrite_cqs t q in
  (* existential variables are canonically renamed, so compare up to
     mutual subsumption *)
  check "original CQ included" true
    (List.exists (fun c -> Ucq.subsumes c q && Ucq.subsumes q c) cqs)

let test_limit () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S"; "R"; "R"; "S"; "R"; "R"; "S" ] in
  check "limit raised" true
    (try
       ignore (Ucq.rewrite_cqs ~max_cqs:50 t q);
       false
     with
     | Obda_runtime.Error.Obda_error
         (Obda_runtime.Error.Budget_exhausted { resource = Size; _ }) ->
       true)

(* The seen set must not make the rewriter slower than its cap: on the
   40-atom S/R chain over Example 11's TBox, 5,000 rewritings are reached
   within a 3 s wall-clock allowance (about 0.3 s on a 2-core host).  The
   budget checks its deadline only every 1024 steps, so the elapsed time is
   checked as well. *)
let test_cap_before_clock () =
  let letters = List.init 40 (fun i -> if i mod 2 = 0 then "S" else "R") in
  let budget = Obda_runtime.Budget.create ~timeout:3. () in
  let t0 = Unix.gettimeofday () in
  check "size cap, not the clock" true
    (try
       ignore
         (Ucq.rewrite_cqs ~budget ~max_cqs:5_000 (example11_tbox ())
            (word_cq letters));
       false
     with
     | Obda_runtime.Error.Obda_error
         (Obda_runtime.Error.Budget_exhausted { resource = Size; _ }) ->
       true);
  check "within the allowance" true (Unix.gettimeofday () -. t0 < 3.)

let test_condensed_smaller () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S"; "R" ] in
  let full = Ndl.num_clauses (Ucq.rewrite t q) in
  let condensed = Ndl.num_clauses (Ucq.rewrite_condensed t q) in
  check "condensation does not grow" true (condensed <= full);
  check "condensation keeps at least one CQ" true (condensed >= 1)

let condensed_agrees =
  QCheck.Test.make ~count:25 ~name:"condensed UCQ = full UCQ on data"
    QCheck.(pair (int_bound 1000) (int_range 1 4))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i -> if (seed + i) mod 3 = 0 then "S" else "R")
      in
      let q = word_cq letters in
      let abox =
        random_abox ~seed ~consts:5
          ~unary:
            [ Symbol.name (Tbox.exists_name t (role "P"));
              Symbol.name (Tbox.exists_name t (role "P-")) ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:10
      in
      Obda_ndl.Eval.answers (Ucq.rewrite t q) abox
      = Obda_ndl.Eval.answers (Ucq.rewrite_condensed t q) abox)

(* ------------------------------------------------------------------ *)
(* parser round-trips on random ontologies *)

let parser_roundtrip =
  QCheck.Test.make ~count:50 ~name:"ontology printer/parser round-trip"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 99 |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let random_role () =
        let r = Role.of_string (pick [ "P"; "Q"; "RR" ]) in
        if Random.State.bool rng then Role.inv r else r
      in
      let random_concept () =
        match Random.State.int rng 3 with
        | 0 -> Concept.Name (sym (pick [ "A"; "B"; "C" ]))
        | 1 -> Concept.Exists (random_role ())
        | _ -> Concept.Top
      in
      let axiom () =
        match Random.State.int rng 6 with
        | 0 -> Tbox.Concept_incl (Concept.Name (sym (pick [ "A"; "B" ])), random_concept ())
        | 1 -> Tbox.Concept_incl (Concept.Exists (random_role ()), random_concept ())
        | 2 -> Tbox.Role_incl (random_role (), random_role ())
        | 3 -> Tbox.Reflexive (random_role ())
        | 4 ->
          Tbox.Concept_disj
            (Concept.Name (sym (pick [ "A"; "B" ])), Concept.Name (sym "C"))
        | _ -> Tbox.Irreflexive (random_role ())
      in
      let axioms = List.init (1 + Random.State.int rng 6) (fun _ -> axiom ()) in
      let t = Tbox.make axioms in
      let t' =
        Obda_parse.Parse.ontology_of_string
          (Obda_parse.Parse.ontology_to_string t)
      in
      (* semantic round-trip: same entailments on the shared signature *)
      List.for_all
        (fun r ->
          List.for_all
            (fun r' ->
              Tbox.sub_role t ~sub:r ~sup:r' = Tbox.sub_role t' ~sub:r ~sup:r')
            (Tbox.roles t))
        (Tbox.roles t)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Tbox.subsumes t ~sub:(Concept.Name a) ~sup:(Concept.Name b)
                 = Tbox.subsumes t' ~sub:(Concept.Name a) ~sup:(Concept.Name b))
               (Tbox.concept_names t))
           (Tbox.concept_names t)
      && Tbox.depth t = Tbox.depth t')

(* ------------------------------------------------------------------ *)
(* generator statistics *)

let test_generator_distribution () =
  let params =
    { Obda_data.Generate.vertices = 2000; edge_prob = 0.01; concept_prob = 0.2 }
  in
  let a =
    Obda_data.Generate.erdos_renyi ~seed:3 ~edge_pred:(sym "E")
      ~concepts:[ sym "M" ] params
  in
  let edges = List.length (Obda_data.Abox.binary_members a (sym "E")) in
  let marks = List.length (Obda_data.Abox.unary_members a (sym "M")) in
  (* expectations: 2000·1999·0.01 ≈ 39 980 and 2000·0.2 = 400 *)
  check "edges within 10%" true
    (float_of_int (abs (edges - 39_980)) < 4_000.0);
  check "marks within 20%" true (abs (marks - 400) < 80)

let suites =
  [
    ( "ucq-internals",
      [
        Alcotest.test_case "subsumption" `Quick test_subsumes;
        Alcotest.test_case "subsumption respects answer order" `Quick
          test_subsumes_respects_answers;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "includes the original CQ" `Quick
          test_includes_original;
        Alcotest.test_case "limit" `Quick test_limit;
        Alcotest.test_case "40-atom chain reaches its cap in time" `Quick
          test_cap_before_clock;
        Alcotest.test_case "condensation shrinks" `Quick test_condensed_smaller;
        QCheck_alcotest.to_alcotest condensed_agrees;
        QCheck_alcotest.to_alcotest parser_roundtrip;
        Alcotest.test_case "generator distribution" `Quick
          test_generator_distribution;
      ] );
  ]
