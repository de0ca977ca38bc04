(* Focused tests of the rewriting internals: tree-witness enumeration,
   the word-type compatibility predicates, and evaluation-engine edge
   cases. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
module Tree_witness = Obda_rewriting.Tree_witness
module Word_type = Obda_rewriting.Word_type
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* tree witnesses *)

let test_tw_rs_query () =
  (* q(x0,x2) :- R(x0,x1), S(x1,x2) over Example 11: the single tree witness
     has interior {x1}, roots {x0,x2}, generated by P⁻ (mapping x1 to a
     P-predecessor null, with R(a, a·P⁻) and S(a·P⁻, a)) *)
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S" ] in
  let tws = Tree_witness.enumerate t q in
  check_int "exactly one witness" 1 (List.length tws);
  let tw = List.hd tws in
  check "interior {x1}" true (tw.Tree_witness.interior = [ "x1" ]);
  check "roots {x0,x2}" true (tw.Tree_witness.roots = [ "x0"; "x2" ]);
  check "covers both atoms" true (List.length tw.Tree_witness.atoms = 2);
  check "generated by P-" true
    (List.exists (fun r -> Role.to_string r = "P-") tw.Tree_witness.generators);
  check "not generated by R" false
    (List.exists (fun r -> Role.to_string r = "R") tw.Tree_witness.generators)

let test_tw_sr_query () =
  (* q(x0,x2) :- S(x0,x1), R(x1,x2): witness interior {x1} generated by P
     (x1 ↦ a·P with S(a, aP) and R(aP, a)) *)
  let t = example11_tbox () in
  let q = word_cq [ "S"; "R" ] in
  let tws = Tree_witness.enumerate t q in
  check_int "exactly one witness" 1 (List.length tws);
  let tw = List.hd tws in
  check "generated by P" true
    (List.exists (fun r -> Role.to_string r = "P") tw.Tree_witness.generators)

let test_tw_no_witness () =
  (* q(x0,x2) :- R(x0,x1), R(x1,x2): a null x1 would need both an incoming
     and an outgoing R, which no single null of Example 11 provides *)
  let t = example11_tbox () in
  let q = word_cq [ "R"; "R" ] in
  check_int "no witnesses" 0 (List.length (Tree_witness.enumerate t q))

let test_tw_interior_properties =
  QCheck.Test.make ~count:40 ~name:"tree witness structural invariants"
    QCheck.(pair (int_bound 1000) (int_range 2 5))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i ->
            match (seed + i) mod 3 with 0 -> "S" | 1 -> "R" | _ -> "P")
      in
      let q = word_cq letters in
      List.for_all
        (fun (tw : Tree_witness.t) ->
          let interior_ok =
            List.for_all
              (fun v -> not (Cq.is_answer_var q v))
              tw.Tree_witness.interior
          in
          let atoms_ok =
            List.for_all
              (fun a ->
                List.exists
                  (fun v -> List.mem v tw.Tree_witness.interior)
                  (Cq.atom_vars a))
              tw.Tree_witness.atoms
          in
          let generators_ok = tw.Tree_witness.generators <> [] in
          interior_ok && atoms_ok && generators_ok)
        (Tree_witness.enumerate t q))

(* ------------------------------------------------------------------ *)
(* word types *)

let test_pair_ok () =
  let t = example11_tbox () in
  let w_eps = [] and w_p = [ role "P" ] and w_pinv = [ role "P-" ] in
  (* S(y,z) with y ↦ a, z ↦ a·P: edge P ⊑ S ✓ *)
  check "S: eps vs P" true (Word_type.pair_ok t (sym "S") w_eps w_p);
  (* R(y,z) with y ↦ a·P, z ↦ a: wy = wz·P and P ⊑ R⁻ ✓ *)
  check "R: P vs eps" true (Word_type.pair_ok t (sym "R") w_p w_eps);
  (* R(y,z) with y ↦ a, z ↦ a·P: would need P ⊑ R ✗ *)
  check "R: eps vs P" false (Word_type.pair_ok t (sym "R") w_eps w_p);
  (* R(y,z) with y ↦ a, z ↦ a·P⁻: P⁻ ⊑ R ✓ *)
  check "R: eps vs P-" true (Word_type.pair_ok t (sym "R") w_eps w_pinv);
  (* unrelated words *)
  check "S: P vs P-" false (Word_type.pair_ok t (sym "S") w_p w_pinv);
  (* both constants *)
  check "any: eps vs eps" true (Word_type.pair_ok t (sym "R") w_eps w_eps)

let test_locally_ok () =
  let t = example11_tbox () in
  let q =
    Cq.make ~answer:[ "x" ]
      [
        Cq.Binary (sym "R", "x", "y");
        Cq.Unary (Tbox.exists_name t (role "P"), "y");
      ]
  in
  (* answer variables only take ε *)
  check "answer var, non-eps" false (Word_type.locally_ok t q "x" [ role "P" ]);
  check "answer var, eps" true (Word_type.locally_ok t q "x" []);
  (* y carries A_P: the null a·P⁻ satisfies A_P (∃P at a P-predecessor) *)
  check "y as a·P-" true (Word_type.locally_ok t q "y" [ role "P-" ]);
  check "y as a·R" false (Word_type.locally_ok t q "y" [ role "R" ])

let test_candidates () =
  let t = example11_tbox () in
  (* depth 1, 6 roles: ε + 6 one-letter words *)
  check_int "candidate words" 7
    (List.length (Word_type.candidates t ~max_depth:1))

(* ------------------------------------------------------------------ *)
(* evaluation engine details *)

let v x = Ndl.Var x
let p name ts = Ndl.Pred (sym name, ts)

let test_unbound_equality () =
  (* head variables bound only through an equality pair *)
  let q =
    Ndl.make ~goal:(sym "Gie") ~goal_args:[ "x"; "y" ]
      [
        {
          Ndl.head = (sym "Gie", [ v "x"; v "y" ]);
          body = [ Ndl.Eq (v "x", v "y"); p "A" [ v "x" ] ];
        };
      ]
  in
  let a = abox_of_facts [ `U ("A", "c1"); `U ("B", "c2") ] in
  Alcotest.(check (list (list string)))
    "equality over the domain"
    [ [ "c1"; "c1" ] ]
    (show_tuples (Eval.answers q a))

let test_deadline () =
  (* a cartesian join large enough to reach a wall-clock check (every 1024
     matcher steps) *)
  let q =
    Ndl.make ~goal:(sym "Gdl") ~goal_args:[]
      [
        {
          Ndl.head = (sym "Gdl", []);
          body =
            [
              p "R" [ v "a"; v "b" ]; p "R" [ v "c"; v "d" ];
              p "R" [ v "e"; v "f" ]; p "R" [ v "g"; v "h" ];
            ];
        };
      ]
  in
  let a =
    random_abox ~seed:9 ~consts:40 ~unary:[] ~binary:[ "R" ] ~unary_atoms:0
      ~binary_atoms:600
  in
  check "wall-clock exhaustion raised" true
    (match Eval.run ~budget:(Budget.create ~timeout:0. ()) q a with
    | _ -> false
    | exception
        Error.Obda_error
          (Error.Budget_exhausted { resource = Error.Wall_clock; _ }) ->
      true)

let test_self_join () =
  let q =
    Ndl.make ~goal:(sym "Gsj") ~goal_args:[ "x" ]
      [
        { Ndl.head = (sym "Gsj", [ v "x" ]); body = [ p "R" [ v "x"; v "x" ] ] };
      ]
  in
  let a = abox_of_facts [ `B ("R", "c1", "c1"); `B ("R", "c1", "c2") ] in
  Alcotest.(check (list (list string)))
    "self loop only" [ [ "c1" ] ]
    (show_tuples (Eval.answers q a))

let test_diamond_dependencies () =
  (* G depends on H twice through different paths; H evaluated once *)
  let q =
    Ndl.make ~goal:(sym "Gdd") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "Gdd", [ v "x" ]);
          body = [ p "H1d" [ v "x" ]; p "H2d" [ v "x" ] ];
        };
        { Ndl.head = (sym "H1d", [ v "x" ]); body = [ p "Hd" [ v "x" ] ] };
        { Ndl.head = (sym "H2d", [ v "x" ]); body = [ p "Hd" [ v "x" ] ] };
        { Ndl.head = (sym "Hd", [ v "x" ]); body = [ p "A" [ v "x" ] ] };
      ]
  in
  let a = abox_of_facts [ `U ("A", "c1"); `U ("A", "c2") ] in
  let r = Eval.run q a in
  check_int "answers" 2 (List.length r.Eval.answers);
  check_int "generated tuples: 2 per IDB" 8 r.Eval.generated_tuples

let test_empty_goal_relation () =
  let q =
    Ndl.make ~goal:(sym "Geg") ~goal_args:[ "x" ]
      [ { Ndl.head = (sym "Geg", [ v "x" ]); body = [ p "Nope" [ v "x" ] ] } ]
  in
  let a = abox_of_facts [ `U ("A", "c1") ] in
  check_int "no answers" 0 (List.length (Eval.answers q a))

(* splitting lemmas *)
let test_lemma14_centroid =
  QCheck.Test.make ~count:60 ~name:"Lemma 14: centroid splits in half"
    QCheck.(pair (int_bound 1000) (int_range 2 20))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let edges =
        List.init (n - 1) (fun i -> (Random.State.int rng (i + 1), i + 1))
      in
      let g = Ugraph.make n edges in
      let all = List.init n Fun.id in
      let c = Ugraph.centroid g all in
      let rest = List.filter (fun u -> u <> c) all in
      List.for_all
        (fun comp -> 2 * List.length comp <= n + 1)
        (Ugraph.components_within g rest))

let suites =
  [
    ( "internals",
      [
        Alcotest.test_case "tree witness: RS" `Quick test_tw_rs_query;
        Alcotest.test_case "tree witness: SR" `Quick test_tw_sr_query;
        Alcotest.test_case "tree witness: RR has none" `Quick
          test_tw_no_witness;
        QCheck_alcotest.to_alcotest test_tw_interior_properties;
        Alcotest.test_case "pair_ok" `Quick test_pair_ok;
        Alcotest.test_case "locally_ok" `Quick test_locally_ok;
        Alcotest.test_case "candidate words" `Quick test_candidates;
        Alcotest.test_case "unbound equality" `Quick test_unbound_equality;
        Alcotest.test_case "deadline" `Quick test_deadline;
        Alcotest.test_case "self join" `Quick test_self_join;
        Alcotest.test_case "diamond dependencies" `Quick
          test_diamond_dependencies;
        Alcotest.test_case "empty goal relation" `Quick
          test_empty_goal_relation;
        QCheck_alcotest.to_alcotest test_lemma14_centroid;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 2: linear NDL by grounding-graph reachability *)

module Linear_eval = Obda_ndl.Linear_eval
module Circuit = Obda_ndl.Circuit
module Omq = Obda_rewriting.Omq
module Skinny = Obda_ndl.Skinny
module Star = Obda_ndl.Star

let linear_eval_agrees =
  QCheck.Test.make ~count:30 ~name:"Theorem 2: reachability = bottom-up"
    QCheck.(pair (int_bound 1000) (int_range 1 5))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i -> if (seed + i) mod 3 = 0 then "S" else "R")
      in
      let q = word_cq letters in
      let lin =
        Star.complete_to_arbitrary_linear t
          (Obda_rewriting.Lin_rewriter.rewrite t q)
      in
      let abox =
        random_abox ~seed ~consts:6
          ~unary:[ Symbol.name (Tbox.exists_name t (role "P-")) ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:3 ~binary_atoms:10
      in
      show_tuples (Linear_eval.answers lin abox)
      = show_tuples (Eval.answers lin abox))

let linear_eval_stats () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S"; "R" ] in
  let lin =
    Star.complete_to_arbitrary_linear t (Obda_rewriting.Lin_rewriter.rewrite t q)
  in
  let abox =
    abox_of_facts [ `B ("P", "b", "a"); `B ("R", "b", "c"); `B ("P", "d", "c") ]
  in
  let st = Linear_eval.grounding_graph_stats lin abox in
  check "grounding graph nonempty" true
    (st.Linear_eval.vertices > 0 && st.Linear_eval.sources > 0)

(* Lemma 4: the monotone circuit agrees with the engine *)

let circuit_agrees =
  QCheck.Test.make ~count:25 ~name:"Lemma 4: circuit = bottom-up (Boolean)"
    QCheck.(pair (int_bound 1000) (int_range 1 4))
    (fun (seed, n) ->
      let t = example11_tbox () in
      let letters =
        List.init n (fun i -> if (seed + i) mod 3 = 1 then "S" else "R")
      in
      let q = word_cq ~answer:`Boolean letters in
      let tw = Omq.rewrite Omq.Tw (Omq.make t q) in
      let skinny = Skinny.transform tw in
      let abox =
        random_abox ~seed ~consts:5
          ~unary:[ Symbol.name (Tbox.exists_name t (role "P")) ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:3 ~binary_atoms:8
      in
      let via_circuit, stats = Circuit.boolean skinny abox in
      let via_engine = Eval.boolean skinny abox in
      via_circuit = via_engine && stats.Circuit.depth >= 1)

let circuit_depth_bound () =
  let t = example11_tbox () in
  let q = word_cq ~answer:`Boolean [ "R"; "S"; "R"; "R" ] in
  let tw = Omq.rewrite Omq.Tw (Omq.make t q) in
  let skinny = Skinny.transform tw in
  let abox = abox_of_facts [ `B ("P", "b", "a"); `B ("R", "b", "c") ] in
  let _, stats = Circuit.boolean skinny abox in
  (* circuit depth tracks the dependence depth of the skinny program *)
  check "depth within 2·(d+1)" true
    (stats.Circuit.depth <= 2 * (Ndl.depth skinny + 1))

let extra_suite =
  ( "thm2-lemma4",
    [
      QCheck_alcotest.to_alcotest linear_eval_agrees;
      Alcotest.test_case "grounding graph stats" `Quick linear_eval_stats;
      QCheck_alcotest.to_alcotest circuit_agrees;
      Alcotest.test_case "circuit depth bound" `Quick circuit_depth_bound;
    ] )

let suites = suites @ [ extra_suite ]
