open Obda_syntax
open Obda_ontology
open Obda_data
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_basics () =
  let a = abox_of_facts [ `U ("A", "c1"); `B ("R", "c1", "c2") ] in
  check_int "2 atoms" 2 (Abox.num_atoms a);
  check_int "2 individuals" 2 (Abox.num_individuals a);
  check "unary member" true (Abox.mem_unary a (sym "A") (sym "c1"));
  check "binary member" true (Abox.mem_binary a (sym "R") (sym "c1") (sym "c2"));
  check "inverse role member" true
    (Abox.mem_role a (role "R-") (sym "c2") (sym "c1"));
  check "no duplicate" true
    (Abox.add_unary a (sym "A") (sym "c1");
     Abox.num_atoms a = 2)

let test_role_successors () =
  let a = abox_of_facts [ `B ("R", "c1", "c2"); `B ("R", "c1", "c3") ] in
  check_int "2 successors" 2 (List.length (Abox.role_successors a (role "R") (sym "c1")));
  check_int "1 predecessor of c2" 1
    (List.length (Abox.role_successors a (role "R-") (sym "c2")))

let test_complete () =
  let t = example11_tbox () in
  let a = abox_of_facts [ `B ("P", "c1", "c2") ] in
  let c = Abox.complete t a in
  check "S(c1,c2) derived" true (Abox.mem_binary c (sym "S") (sym "c1") (sym "c2"));
  check "R(c2,c1) derived" true (Abox.mem_binary c (sym "R") (sym "c2") (sym "c1"));
  check "A_P(c1) derived" true
    (Abox.mem_unary c (Tbox.exists_name t (role "P")) (sym "c1"));
  check "A_{S⁻}(c2) derived" true
    (Abox.mem_unary c (Tbox.exists_name t (role "S-")) (sym "c2"));
  check "complete instance is complete" true (Abox.is_complete t c);
  check "original not complete" false (Abox.is_complete t a)

let test_complete_reflexive () =
  let t = Tbox.make [ Tbox.Reflexive (role "R") ] in
  let a = abox_of_facts [ `U ("A", "c1") ] in
  let c = Abox.complete t a in
  check "reflexive loop added" true
    (Abox.mem_binary c (sym "R") (sym "c1") (sym "c1"))

let test_satisfies_concept () =
  let t = example11_tbox () in
  let a = abox_of_facts [ `B ("P", "c1", "c2") ] in
  check "c1 satisfies ∃S" true
    (Abox.satisfies_concept t a (sym "c1") (Concept.Exists (role "S")));
  check "c2 satisfies ∃R" true
    (Abox.satisfies_concept t a (sym "c2") (Concept.Exists (role "R")));
  check "c2 does not satisfy ∃P" false
    (Abox.satisfies_concept t a (sym "c2") (Concept.Exists (role "P")))

let test_consistency () =
  let t =
    Tbox.make
      [
        Tbox.Concept_disj (Concept.Name (sym "A"), Concept.Name (sym "B"));
        Tbox.Concept_incl (Concept.Name (sym "C"), Concept.Name (sym "B"));
      ]
  in
  check "consistent" true
    (Abox.consistent t (abox_of_facts [ `U ("A", "c1"); `U ("B", "c2") ]));
  check "direct clash" false
    (Abox.consistent t (abox_of_facts [ `U ("A", "c1"); `U ("B", "c1") ]));
  check "derived clash (C ⊑ B)" false
    (Abox.consistent t (abox_of_facts [ `U ("A", "c1"); `U ("C", "c1") ]))

let test_consistency_roles () =
  let t =
    Tbox.make
      [
        Tbox.Role_disj (role "R", role "S");
        Tbox.Irreflexive (role "R");
        Tbox.Role_incl (role "Sub", role "R");
      ]
  in
  check "role clash" false
    (Abox.consistent t
       (abox_of_facts [ `B ("R", "c1", "c2"); `B ("S", "c1", "c2") ]));
  check "no clash on different pairs" true
    (Abox.consistent t
       (abox_of_facts [ `B ("R", "c1", "c2"); `B ("S", "c2", "c1") ]));
  check "irreflexive violation" false
    (Abox.consistent t (abox_of_facts [ `B ("Sub", "c1", "c1") ]))

let test_generator () =
  let params =
    { Generate.vertices = 200; edge_prob = 0.05; concept_prob = 0.1 }
  in
  let a =
    Generate.erdos_renyi ~seed:7 ~edge_pred:(sym "R")
      ~concepts:[ sym "M1"; sym "M2" ]
      params
  in
  let n_edges =
    List.length (Abox.binary_members a (sym "R"))
  in
  (* expectation: 200·199·0.05 ≈ 1990 directed edges *)
  check "edge count in expected range" true (n_edges > 1400 && n_edges < 2600);
  let a' =
    Generate.erdos_renyi ~seed:7 ~edge_pred:(sym "R")
      ~concepts:[ sym "M1"; sym "M2" ]
      params
  in
  check_int "deterministic for a fixed seed" (Abox.num_atoms a)
    (Abox.num_atoms a')

(* Copy-on-write snapshots: a snapshot is a frozen view — mutations on
   either side never show through, no-op mutations stay cheap no-ops, and
   revisions advance only on the mutated store. *)
let test_snapshot_isolation () =
  let a = abox_of_facts [ `U ("A", "c1"); `B ("R", "c1", "c2") ] in
  let r0 = Abox.revision a in
  let s = Abox.snapshot a in
  check_int "snapshot shares the revision" r0 (Abox.revision s);
  check_int "snapshot shares the atoms" 2 (Abox.num_atoms s);
  (* writer side: the live store moves on, the snapshot does not *)
  Abox.add_unary a (sym "A") (sym "c3");
  check "live store sees the add" true (Abox.mem_unary a (sym "A") (sym "c3"));
  check "snapshot does not" false (Abox.mem_unary s (sym "A") (sym "c3"));
  check_int "snapshot atom count frozen" 2 (Abox.num_atoms s);
  check_int "snapshot revision frozen" r0 (Abox.revision s);
  check "live revision advanced" true (Abox.revision a > r0);
  (* removals do not reach the snapshot either *)
  check "retract from the live store" true
    (Abox.remove_binary a (sym "R") (sym "c1") (sym "c2"));
  check "snapshot keeps the edge" true
    (Abox.mem_binary s (sym "R") (sym "c1") (sym "c2"));
  check "and the inverse adjacency" true
    (Abox.mem_role s (role "R-") (sym "c2") (sym "c1"))

let test_snapshot_mutable_both_ways () =
  let a = abox_of_facts [ `U ("A", "c1") ] in
  let s = Abox.snapshot a in
  (* the snapshot itself is a first-class store: mutating it copies what
     it writes without disturbing the original *)
  Abox.add_unary s (sym "B") (sym "c1");
  check "snapshot sees its own write" true (Abox.mem_unary s (sym "B") (sym "c1"));
  check "original does not" false (Abox.mem_unary a (sym "B") (sym "c1"));
  check_int "original atom count untouched" 1 (Abox.num_atoms a);
  (* snapshot-of-snapshot chains behave the same way *)
  let s2 = Abox.snapshot s in
  Abox.add_unary s2 (sym "C") (sym "c1");
  check "grandchild write is private" false (Abox.mem_unary s (sym "C") (sym "c1"));
  check_int "grandchild has all three atoms" 3 (Abox.num_atoms s2)

let test_snapshot_noop_mutations () =
  let a = abox_of_facts [ `U ("A", "c1"); `B ("R", "c1", "c2") ] in
  let r0 = Abox.revision a in
  let s = Abox.snapshot a in
  (* ineffective mutations must not bump the revision (and, internally,
     must not pay the copy) *)
  Abox.add_unary a (sym "A") (sym "c1");
  check "removing an absent fact is false" false
    (Abox.remove_unary a (sym "B") (sym "c1"));
  check "removing from an absent relation is false" false
    (Abox.remove_binary a (sym "S") (sym "c1") (sym "c2"));
  check_int "no-ops leave the revision alone" r0 (Abox.revision a);
  check_int "snapshot untouched" 2 (Abox.num_atoms s);
  (* individuals stay correct on the live store after a retract *)
  check "retract c2's only atom" true
    (Abox.remove_binary a (sym "R") (sym "c1") (sym "c2"));
  check_int "live individuals recomputed" 1 (Abox.num_individuals a);
  check_int "snapshot individuals frozen" 2 (Abox.num_individuals s)

let test_scale () =
  let p = { Generate.vertices = 1000; edge_prob = 0.05; concept_prob = 0.1 } in
  let s = Generate.scale 0.1 p in
  check_int "scaled vertices" 100 s.Generate.vertices;
  check "average degree preserved" true
    (abs_float ((s.Generate.edge_prob *. 100.) -. 50.) < 1e-6)

let suites =
  [
    ( "data",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "role successors" `Quick test_role_successors;
        Alcotest.test_case "completion" `Quick test_complete;
        Alcotest.test_case "completion (reflexive)" `Quick
          test_complete_reflexive;
        Alcotest.test_case "instance checking" `Quick test_satisfies_concept;
        Alcotest.test_case "concept consistency" `Quick test_consistency;
        Alcotest.test_case "role consistency" `Quick test_consistency_roles;
        Alcotest.test_case "random generator" `Quick test_generator;
        Alcotest.test_case "scaling" `Quick test_scale;
        Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
        Alcotest.test_case "snapshot mutable both ways" `Quick
          test_snapshot_mutable_both_ways;
        Alcotest.test_case "snapshot no-op mutations" `Quick
          test_snapshot_noop_mutations;
      ] );
  ]
