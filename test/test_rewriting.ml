open Obda_syntax
open Obda_ontology
open Obda_cq
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
open Helpers

let check = Alcotest.(check bool)

let marker t r = Symbol.name (Tbox.exists_name t (role r))

(* All rewriting algorithms must agree with the chase on every data
   instance.  This is the central soundness/completeness test. *)
let agreement_on ?(algorithms = Omq.all_algorithms) omq abox name =
  let expected = certain_answers omq abox in
  List.iter
    (fun alg ->
      if Omq.applicable alg omq then
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s/%s" name (Omq.algorithm_name alg))
          expected (answers_via alg omq abox))
    algorithms

let example11_aboxes t =
  [
    ("direct", abox_of_facts [ `B ("R", "a", "b"); `B ("S", "b", "c"); `B ("R", "c", "d") ]);
    ( "via P",
      abox_of_facts
        [ `B ("P", "b", "a"); `B ("R", "b", "c"); `B ("P", "d", "c") ] );
    ( "markers",
      let a = abox_of_facts [ `B ("R", "a", "b"); `B ("R", "b", "c") ] in
      Obda_data.Abox.add_unary a (Tbox.exists_name t (role "P-")) (sym "a");
      Obda_data.Abox.add_unary a (Tbox.exists_name t (role "P")) (sym "b");
      a );
    ( "random",
      random_abox ~seed:3 ~consts:7
        ~unary:[ marker t "P"; marker t "P-" ]
        ~binary:[ "R"; "S"; "P" ] ~unary_atoms:5 ~binary_atoms:18 );
  ]

let test_example_omq_all_prefixes () =
  let t = example11_tbox () in
  let letters = [ "R"; "S"; "R"; "R"; "S"; "R"; "R" ] in
  for n = 1 to List.length letters do
    let prefix = List.filteri (fun i _ -> i < n) letters in
    let q = word_cq prefix in
    let omq = Omq.make t q in
    List.iter
      (fun (name, abox) ->
        agreement_on omq abox (Printf.sprintf "%d-atom/%s" n name))
      (example11_aboxes t)
  done

let test_boolean_queries () =
  let t = example11_tbox () in
  List.iter
    (fun letters ->
      let q = word_cq ~answer:`Boolean letters in
      let omq = Omq.make t q in
      List.iter
        (fun (name, abox) -> agreement_on omq abox ("bool/" ^ name))
        (example11_aboxes t))
    [ [ "S"; "R" ]; [ "R"; "S" ]; [ "S" ]; [ "R"; "S"; "R" ] ]

let test_one_answer_var () =
  let t = example11_tbox () in
  List.iter
    (fun letters ->
      let q = word_cq ~answer:`First letters in
      let omq = Omq.make t q in
      List.iter
        (fun (name, abox) -> agreement_on omq abox ("half/" ^ name))
        (example11_aboxes t))
    [ [ "R"; "S" ]; [ "S"; "R"; "R" ] ]

(* a deeper ontology: depth 2 *)
let deep_tbox () =
  Tbox.make
    [
      Tbox.Concept_incl (Concept.Name (sym "A"), Concept.Exists (role "P"));
      Tbox.Concept_incl (Concept.Exists (role "P-"), Concept.Exists (role "S"));
      Tbox.Concept_incl (Concept.Exists (role "S-"), Concept.Name (sym "B"));
      Tbox.Role_incl (role "P", role "R");
    ]

let test_deep_ontology () =
  let t = deep_tbox () in
  check "depth 2" true (Tbox.depth t = Tbox.Finite 2);
  let aboxes =
    [
      ("seed", abox_of_facts [ `U ("A", "a"); `B ("R", "a", "b") ]);
      ( "rand",
        random_abox ~seed:11 ~consts:6 ~unary:[ "A"; "B" ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:6 ~binary_atoms:12 );
    ]
  in
  List.iter
    (fun (q, qname) ->
      let omq = Omq.make t q in
      List.iter
        (fun (name, abox) ->
          agreement_on omq abox (Printf.sprintf "deep/%s/%s" qname name))
        aboxes)
    [
      (word_cq ~answer:`First [ "R"; "S" ], "RS");
      (word_cq ~answer:`Boolean [ "R"; "S" ], "bRS");
      (word_cq ~answer:`First [ "P"; "S" ], "PS");
      ( Cq.make ~answer:[ "x" ]
          [ Cq.Unary (sym "A", "x"); Cq.Binary (sym "R", "x", "y"); Cq.Unary (sym "B", "y") ],
        "AxRB" );
    ]

(* a star-shaped (3-leaf) query *)
let test_star_query () =
  let t = deep_tbox () in
  let q =
    Cq.make ~answer:[ "c" ]
      [
        Cq.Binary (sym "R", "c", "l1");
        Cq.Binary (sym "S", "c", "l2");
        Cq.Binary (sym "R", "l3", "c");
      ]
  in
  let omq = Omq.make t q in
  let aboxes =
    [
      ( "rand1",
        random_abox ~seed:21 ~consts:6 ~unary:[ "A"; "B" ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:6 ~binary_atoms:14 );
      ( "rand2",
        random_abox ~seed:22 ~consts:5 ~unary:[ "A" ] ~binary:[ "R"; "S" ]
          ~unary_atoms:4 ~binary_atoms:10 );
    ]
  in
  List.iter (fun (name, abox) -> agreement_on omq abox ("star/" ^ name)) aboxes

(* infinite-depth ontology: only Tw (and the UCQ baselines on finite
   fragments) apply; UCQ would not terminate, so restrict to Tw *)
let test_infinite_depth_tw () =
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Name (sym "A"), Concept.Exists (role "P"));
        Tbox.Concept_incl (Concept.Exists (role "P-"), Concept.Exists (role "P"));
        Tbox.Role_incl (role "P", role "R");
      ]
  in
  let q = word_cq ~answer:`First [ "R"; "R"; "R" ] in
  let omq = Omq.make t q in
  let aboxes =
    [
      ("seed", abox_of_facts [ `U ("A", "a"); `B ("R", "b", "a") ]);
      ( "rand",
        random_abox ~seed:31 ~consts:5 ~unary:[ "A" ] ~binary:[ "R"; "P" ]
          ~unary_atoms:4 ~binary_atoms:8 );
    ]
  in
  List.iter
    (fun (name, abox) ->
      agreement_on ~algorithms:[ Omq.Tw ] omq abox ("inf/" ^ name))
    aboxes

(* treewidth-2 query: only Log (and UCQ) apply *)
let test_cyclic_query_log () =
  let t = example11_tbox () in
  let q =
    Cq.make ~answer:[ "x" ]
      [
        Cq.Binary (sym "R", "x", "y");
        Cq.Binary (sym "S", "y", "z");
        Cq.Binary (sym "R", "x", "z");
      ]
  in
  let omq = Omq.make t q in
  check "log applicable" true (Omq.applicable Omq.Log omq);
  check "lin not applicable" false (Omq.applicable Omq.Lin omq);
  let aboxes =
    [
      ( "seed",
        abox_of_facts
          [ `B ("R", "a", "b"); `B ("S", "b", "c"); `B ("R", "a", "c") ] );
      ("viaP", abox_of_facts [ `B ("R", "a", "b"); `B ("P", "b", "c"); `B ("R", "a", "c") ]);
      ( "rand",
        random_abox ~seed:41 ~consts:5
          ~unary:[ marker t "P"; marker t "P-" ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:14 );
    ]
  in
  List.iter
    (fun (name, abox) ->
      agreement_on ~algorithms:[ Omq.Log; Omq.Ucq ] omq abox ("cyc/" ^ name))
    aboxes

let test_structural_properties () =
  let t = example11_tbox () in
  let q = example8_cq () in
  let omq = Omq.make t q in
  let lin = Omq.rewrite ~over:`Arbitrary Omq.Lin omq in
  check "Lin rewriting is linear NDL" true (Ndl.is_linear lin);
  check "Lin width ≤ 2ℓ+1" true (Ndl.width lin <= (2 * 2) + 1);
  let lin_complete = Omq.rewrite ~over:`Complete Omq.Lin omq in
  check "Lin (complete) width ≤ 2ℓ" true (Ndl.width lin_complete <= 2 * 2);
  let log = Omq.rewrite ~over:`Complete Omq.Log omq in
  check "Log width ≤ 3(t+1)" true (Ndl.width log <= 3 * 2);
  let tw = Omq.rewrite ~over:`Complete Omq.Tw omq in
  check "Tw width ≤ ℓ+1+answers" true (Ndl.width tw <= 2 + 1 + 2);
  (* all rewritings are well-formed NDL *)
  List.iter
    (fun alg ->
      match Ndl.check (Omq.rewrite alg omq) with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s rewriting ill-formed: %s" (Omq.algorithm_name alg) e)
    Omq.all_algorithms

let test_classification () =
  let t = example11_tbox () in
  let omq = Omq.make t (example8_cq ()) in
  let c = Omq.classify omq in
  check "depth 1" true (c.Omq.ontology_depth = Tbox.Finite 1);
  check "tree" true c.Omq.tree_shaped;
  check "linear" true c.Omq.linear;
  check "leaves 2" true (c.Omq.leaves = Some 2);
  check "in OMQ(1,1,2)" true (List.mem "OMQ(1,1,2)" c.Omq.classes)

(* property-based agreement: random linear OMQs over example11 × random data *)
let qcheck_agreement alg =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "agreement %s vs chase" (Omq.algorithm_name alg))
    QCheck.(
      triple (int_bound 1000) (int_bound 3)
        (list_of_size Gen.(1 -- 5) (QCheck.make Gen.(oneofl [ "R"; "S"; "P" ]))))
    (fun (seed, answer_kind, letters) ->
      QCheck.assume (letters <> []);
      let t = example11_tbox () in
      let answer =
        match answer_kind with 0 -> `Both | 1 -> `Boolean | _ -> `First
      in
      let q = word_cq ~answer letters in
      let omq = Omq.make t q in
      if not (Omq.applicable alg omq) then true
      else begin
        let abox =
          random_abox ~seed ~consts:5
            ~unary:[ marker t "P"; marker t "P-" ]
            ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:10
        in
        let expected = certain_answers omq abox in
        let got = answers_via alg omq abox in
        if expected <> got then
          QCheck.Test.fail_reportf "OMQ %s: expected %d answers, got %d"
            (String.concat "" letters)
            (List.length expected) (List.length got)
        else true
      end)

(* disconnected CQs: component-wise rewriting, including a Boolean
   component that can map entirely into the anonymous part *)
let test_disconnected_queries () =
  let t = deep_tbox () in
  let q =
    Cq.make ~answer:[ "x" ]
      [
        Cq.Binary (sym "R", "x", "y");
        (* a separate Boolean component *)
        Cq.Binary (sym "S", "u", "v");
      ]
  in
  let omq = Omq.make t q in
  check "Lin applicable on disconnected" true (Omq.applicable Omq.Lin omq);
  check "Log applicable on disconnected" true (Omq.applicable Omq.Log omq);
  let aboxes =
    [
      ("both", abox_of_facts [ `B ("R", "a", "b"); `B ("S", "c", "d") ]);
      (* S-component satisfied only through A ⊑ ∃P, ∃P⁻ ⊑ ∃S *)
      ("anon", abox_of_facts [ `B ("R", "a", "b"); `U ("A", "c") ]);
      ("half", abox_of_facts [ `B ("R", "a", "b") ]);
      ( "rand",
        random_abox ~seed:77 ~consts:6 ~unary:[ "A"; "B" ]
          ~binary:[ "R"; "S"; "P" ] ~unary_atoms:4 ~binary_atoms:10 );
    ]
  in
  List.iter
    (fun (name, abox) -> agreement_on omq abox ("disc/" ^ name))
    aboxes

(* The telemetry gauges a rewriter reports must be the measurements of the
   program it returns — and, for a pinned OMQ, exact known values: the Lin
   rewriting of Example 8's word query over Example 11's ontology. *)
let test_lin_metrics () =
  let module Obs = Obda_obs.Obs in
  let omq = { Omq.tbox = example11_tbox (); cq = example8_cq () } in
  let q, c = Obs.collecting (fun () -> Omq.rewrite Omq.Lin omq) in
  let gauge name = Obs.Collector.gauge_int c name in
  Alcotest.(check (option int))
    "clauses gauge = program clauses" (Some (Ndl.num_clauses q))
    (gauge "ndl.clauses");
  Alcotest.(check (option int))
    "width gauge = program width" (Some (Ndl.width q)) (gauge "ndl.width");
  Alcotest.(check (option int))
    "size gauge = program size" (Some (Ndl.size q)) (gauge "ndl.size");
  (* exact values for this pinned OMQ *)
  Alcotest.(check (option int)) "Lin clause count" (Some 51) (gauge "ndl.clauses");
  Alcotest.(check (option int)) "Lin width" (Some 3) (gauge "ndl.width");
  Alcotest.(check int) "clauses emitted before pruning" 33
    (Obs.Collector.counter c "ndl.clauses_emitted");
  (* the complete-data program of Theorem (Lin) really is width ≤ 2 *)
  let q_complete, c_complete =
    Obs.collecting (fun () -> Omq.rewrite ~over:`Complete Omq.Lin omq)
  in
  check "complete-level width ≤ 2" true (Ndl.width q_complete <= 2);
  Alcotest.(check (option int))
    "complete-level width gauge" (Some (Ndl.width q_complete))
    (Obs.Collector.gauge_int c_complete "ndl.width")

(* The Tw, Lin and Log programs of every Fig. 2 cell (three sequences ×
   prefixes 1–15, over arbitrary instances, Example 11's TBox) against the
   MD5s pinned in [rewritings.digests]: a speed-up of a rewriter must not
   change its output by one clause.

   Two things about a program depend on the process rather than on the
   rewriter.  Fresh predicate names take the first free [#n], so each
   [#]-suffixed name is renumbered in order of first occurrence.  And the
   ∗-transformation lists the clauses of a completed predicate in symbol
   order, i.e. in the order the process first interned the names; so the
   test renames Example 11's predicates to names no other test interns, and
   interns them itself, TBox first. *)
let renumber_fresh text =
  let names = Hashtbl.create 64 in
  let out = Buffer.create (String.length text) in
  let token = Buffer.create 32 in
  let flush () =
    let t = Buffer.contents token in
    Buffer.clear token;
    match String.index_opt t '#' with
    | None -> Buffer.add_string out t
    | Some i ->
      let k =
        match Hashtbl.find_opt names t with
        | Some k -> k
        | None ->
          let k = Hashtbl.length names in
          Hashtbl.add names t k;
          k
      in
      Buffer.add_string out (Printf.sprintf "%s#%d" (String.sub t 0 i) k)
  in
  String.iter
    (function
      | (' ' | '\n' | '\t' | '(' | ')' | ',') as c ->
        flush ();
        Buffer.add_char out c
      | c -> Buffer.add_char token c)
    text;
  flush ();
  Buffer.contents out

let fig2_digests () =
  let name letter = letter ^ "_fig2" in
  let p = role (name "P") in
  let s = role (name "S") in
  let r = role (name "R") in
  let t = Tbox.make [ Tbox.Role_incl (p, s); Tbox.Role_incl (p, Role.inv r) ] in
  List.concat_map
    (fun (seq, letters) ->
      List.concat_map
        (fun len ->
          let word = List.init len (fun i -> name (String.make 1 letters.[i])) in
          let omq = Omq.make t (word_cq word) in
          List.map
            (fun alg ->
              let text =
                Format.asprintf "%a" Ndl.pp (Omq.rewrite ~over:`Arbitrary alg omq)
              in
              Printf.sprintf "%d %d %s %s" seq len (Omq.algorithm_name alg)
                (Digest.to_hex (Digest.string (renumber_fresh text))))
            [ Omq.Tw; Omq.Lin; Omq.Log ])
        (List.init 15 (fun i -> i + 1)))
    [ (1, "RRSRSRSRRSRRSSR"); (2, "SRRRRRSRSRRRRRR"); (3, "SRRSSRSRSRRSRRS") ]

let test_rewriting_digests () =
  let pinned =
    In_channel.with_open_text "rewritings.digests" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let computed = fig2_digests () in
  Alcotest.(check int) "135 cells pinned" 135 (List.length pinned);
  Alcotest.(check (list string)) "rewriting digests" pinned computed

(* [rewrite.tree_witnesses] counts each witness of a component once per
   rewrite: Tw and Presto* read the 10 tree witnesses of the 15-atom
   sequence-1 prefix of Fig. 2. *)
let test_tree_witness_count () =
  let module Obs = Obda_obs.Obs in
  let letters = "RRSRSRSRRSRRSSR" in
  let omq =
    Omq.make (example11_tbox ())
      (word_cq (List.init 15 (fun i -> String.make 1 letters.[i])))
  in
  let count alg =
    let _, c = Obs.collecting (fun () -> Omq.rewrite alg omq) in
    Obs.Collector.counter c "rewrite.tree_witnesses"
  in
  Alcotest.(check int) "Tw" 10 (count Omq.Tw);
  Alcotest.(check int) "Presto*" 10 (count Omq.Presto_like)

(* Tables 3–5 count the tuples RDFox generates without magic sets: every
   IDB relation in full, which [Eval.materialise] keeps computing now that
   [Eval.run] answers goal-directed.  Pinned for the Fig. 2 sequence-1
   prefixes of length 1–6 over 2.ttl at scale 0.01 (generator seed 42, the
   paper tables' instance), Tw, Lin and Log, on both engines: the counts
   the evaluator reported before it was goal-directed. *)
let test_materialise_counts () =
  let module Eval = Obda_ndl.Eval in
  let module Generate = Obda_data.Generate in
  let t = example11_tbox () in
  let params = Generate.scale 0.01 (List.assoc "2.ttl" Generate.table2_params) in
  let abox =
    Generate.erdos_renyi ~seed:42 ~edge_pred:(sym "R")
      ~concepts:[ Tbox.exists_name t (role "P"); Tbox.exists_name t (role "P-") ]
      params
  in
  let letters = "RRSRSR" in
  let pinned =
    [
      (1, [ 1368; 1518; 1368 ]); (2, [ 5478; 7683; 5022 ]); (3, [ 1368; 200; 912 ]);
      (4, [ 3879; 2024; 1368 ]); (5, [ 3879; 200; 2967 ]); (6, [ 4791; 2024; 3879 ]);
    ]
  in
  List.iter
    (fun (len, counts) ->
      let q = word_cq (List.init len (fun i -> String.make 1 letters.[i])) in
      List.iter2
        (fun alg count ->
          let rewriting = Omq.rewrite ~over:`Arbitrary alg (Omq.make t q) in
          List.iter
            (fun naive ->
              Alcotest.(check int)
                (Printf.sprintf "seq1 len %d %s%s" len (Omq.algorithm_name alg)
                   (if naive then " naive" else ""))
                count (Eval.materialise ~naive rewriting abox).Eval.generated_tuples)
            [ false; true ])
        [ Omq.Tw; Omq.Lin; Omq.Log ] counts)
    pinned

let suites =
  [
    ( "rewriting",
      [
        Alcotest.test_case "Fig. 2 rewritings match their pinned digests" `Quick
          test_rewriting_digests;
        Alcotest.test_case "Tables 3-5 generated tuples: materialised in full"
          `Quick test_materialise_counts;
        Alcotest.test_case "example OMQ, all prefixes, all algorithms" `Quick
          test_example_omq_all_prefixes;
        Alcotest.test_case "boolean queries" `Quick test_boolean_queries;
        Alcotest.test_case "one answer variable" `Quick test_one_answer_var;
        Alcotest.test_case "deep ontology" `Quick test_deep_ontology;
        Alcotest.test_case "star query" `Quick test_star_query;
        Alcotest.test_case "infinite depth (Tw)" `Quick test_infinite_depth_tw;
        Alcotest.test_case "cyclic query (Log)" `Quick test_cyclic_query_log;
        Alcotest.test_case "structural properties" `Quick
          test_structural_properties;
        Alcotest.test_case "classification" `Quick test_classification;
        Alcotest.test_case "disconnected queries" `Quick
          test_disconnected_queries;
        Alcotest.test_case "Lin telemetry metrics" `Quick test_lin_metrics;
        Alcotest.test_case "tree witnesses counted once per rewrite" `Quick
          test_tree_witness_count;
        QCheck_alcotest.to_alcotest (qcheck_agreement Omq.Tw);
        QCheck_alcotest.to_alcotest (qcheck_agreement Omq.Lin);
        QCheck_alcotest.to_alcotest (qcheck_agreement Omq.Log);
        QCheck_alcotest.to_alcotest (qcheck_agreement Omq.Ucq);
        QCheck_alcotest.to_alcotest (qcheck_agreement Omq.Presto_like);
      ] );
  ]
