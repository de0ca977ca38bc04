(* The experiment harness: regenerates every table and figure of the paper
   (Fig. 1 classification, Fig. 2 / Table 1 rewriting sizes, Table 2
   datasets, Tables 3-5 evaluation) plus the Section 4/5 hardness
   constructions, and a Bechamel micro-benchmark per table. *)

open Bench_support
open Obda_syntax
open Obda_ontology
open Obda_cq
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
open Obda_reductions

let scale = ref 0.05
let timeout = ref 3.0
let max_len = ref 15
let max_cqs = ref 10_000

(* ------------------------------------------------------------------ *)
(* Fig. 1: the complexity landscape, witnessed by our rewritings *)

let fig1 () =
  print_header
    "Fig. 1: OMQ classification and rewriting witnesses (combined complexity)";
  let t1 = example11 () in
  let deep =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Name (Symbol.intern "A"),
                           Concept.Exists (Role.of_string "P"));
        Tbox.Concept_incl (Concept.Exists (Role.of_string "P-"),
                           Concept.Exists (Role.of_string "S"));
      ]
  in
  let infinite = Sat.t_dagger () in
  let linear_q = prefix_query sequence1 6 in
  let tree_q =
    Cq.make ~answer:[ "c" ]
      [
        Cq.Binary (Symbol.intern "R", "c", "l1");
        Cq.Binary (Symbol.intern "S", "c", "l2");
        Cq.Binary (Symbol.intern "R", "l3", "c");
      ]
  in
  let cyclic_q =
    Cq.make ~answer:[ "x" ]
      [
        Cq.Binary (Symbol.intern "R", "x", "y");
        Cq.Binary (Symbol.intern "S", "y", "z");
        Cq.Binary (Symbol.intern "R", "x", "z");
      ]
  in
  let widths = [ 22; 30; 9; 7; 7; 9; 9 ] in
  print_row widths
    [ "ontology"; "classes"; "alg"; "claus"; "width"; "linear"; "sd" ];
  List.iter
    (fun (tname, tbox) ->
      List.iter
        (fun (qname, q) ->
          let omq = Omq.make tbox q in
          let c = Omq.classify omq in
          List.iter
            (fun alg ->
              if Omq.applicable alg omq then begin
                let r = Omq.rewrite ~over:`Complete alg omq in
                print_row widths
                  [
                    tname ^ "/" ^ qname;
                    String.concat " " c.Omq.classes;
                    Omq.algorithm_name alg;
                    string_of_int (Ndl.num_clauses r);
                    string_of_int (Ndl.width r);
                    string_of_bool (Ndl.is_linear r);
                    Printf.sprintf "%.1f" (Ndl.skinny_depth r);
                  ]
              end)
            [ Omq.Lin; Omq.Log; Omq.Tw ])
        [ ("linear(l=2)", linear_q); ("tree(l=3)", tree_q); ("tw=2", cyclic_q) ])
    [ ("depth1", t1); ("depth2", deep); ("depth-inf(Tdag)", infinite) ];
  print_endline
    "(NL cell = Lin linear rewriting; LOGCFL cells = Log/Tw with log skinny \
     depth)"

(* ------------------------------------------------------------------ *)
(* Fig. 2 / Table 1: rewriting sizes on the three sequences *)

let table1 () =
  print_header
    "Table 1 / Fig. 2: number of clauses of the NDL-rewritings (arbitrary \
     instances)";
  let tbox = example11 () in
  List.iter
    (fun (i, letters) ->
      Printf.printf "\nSequence %d: %s\n" i letters;
      let widths = 6 :: List.map (fun _ -> 9) table1_algorithms in
      print_row widths ("atoms" :: List.map algorithm_label table1_algorithms);
      (* once a baseline hits its limit, longer prefixes only get worse *)
      let dead = Hashtbl.create 8 in
      for n = 1 to min !max_len (String.length letters) do
        let q = prefix_query letters n in
        let omq = Omq.make tbox q in
        let cells =
          List.map
            (fun alg ->
              if Hashtbl.mem dead alg then "-"
              else
                match
                  rewriting_size
                    ~budget:(Obda_runtime.Budget.create ~timeout:!timeout ())
                    ~max_cqs:!max_cqs alg omq
                with
                | Some k -> string_of_int k
                | None ->
                  Hashtbl.replace dead alg ();
                  "-")
            table1_algorithms
        in
        print_row widths (string_of_int n :: cells)
      done)
    sequences

(* ------------------------------------------------------------------ *)
(* Table 2: datasets *)

let table2 () =
  print_header
    (Printf.sprintf "Table 2: generated datasets (scale %g of the paper's)"
       !scale);
  let tbox = example11 () in
  let widths = [ 8; 9; 9; 9; 12; 12; 6 ] in
  print_row widths [ "dataset"; "V"; "p"; "q"; "avg.deg"; "atoms"; "seed" ];
  List.iter
    (fun (name, (params : Obda_data.Generate.graph_params), abox) ->
      print_row widths
        [
          name;
          string_of_int params.Obda_data.Generate.vertices;
          Printf.sprintf "%.4f" params.Obda_data.Generate.edge_prob;
          Printf.sprintf "%.4f" params.Obda_data.Generate.concept_prob;
          Printf.sprintf "%.1f"
            (params.Obda_data.Generate.edge_prob
            *. float_of_int params.Obda_data.Generate.vertices);
          string_of_int (Obda_data.Abox.num_atoms abox);
          string_of_int default_seed;
        ])
    (datasets ~scale:!scale tbox)

(* ------------------------------------------------------------------ *)
(* Tables 3-5: evaluating the rewritings *)

let eval_table ~table_no ~letters () =
  print_header
    (Printf.sprintf
       "Table %d: evaluation on sequence %s (time s | answers | generated \
        tuples; scale %g, timeout %gs)"
       table_no letters !scale !timeout);
  let tbox = example11 () in
  let ds = datasets ~scale:!scale tbox in
  let len = min !max_len (String.length letters) in
  (* compute each rewriting once, shared across the datasets *)
  let dead = Hashtbl.create 8 in
  let rewritings =
    Array.init (len + 1) (fun n ->
        if n = 0 then []
        else
          let q = prefix_query letters n in
          let omq = Omq.make tbox q in
          List.map
            (fun alg ->
              if Hashtbl.mem dead alg then (alg, None)
              else
                match
                  rewrite
                    ~budget:(Obda_runtime.Budget.create ~timeout:!timeout ())
                    ~max_cqs:!max_cqs alg omq
                with
                | query -> (alg, Some query)
                | exception Skipped _ ->
                  Hashtbl.replace dead alg ();
                  (alg, None))
            eval_algorithms)
  in
  List.iter
    (fun (dname, _, abox) ->
      Printf.printf "\ndataset %s (%d atoms, seed %d)\n" dname
        (Obda_data.Abox.num_atoms abox)
        default_seed;
      let widths =
        6 :: List.concat_map (fun _ -> [ 8; 9; 10 ]) eval_algorithms
      in
      print_row widths
        ("atoms"
        :: List.concat_map
             (fun alg -> [ algorithm_label alg; "#ans"; "#tup" ])
             eval_algorithms);
      for n = 1 to len do
        let cells =
          List.concat_map
            (fun (_, rewriting) ->
              let o =
                match rewriting with
                | None -> Not_available "limit"
                | Some query -> evaluate ~timeout:!timeout query abox
              in
              [
                cell_of_outcome `Time o;
                cell_of_outcome `Answers o;
                cell_of_outcome `Tuples o;
              ])
            rewritings.(n)
        in
        print_row widths (string_of_int n :: cells)
      done)
    ds

let table3 = eval_table ~table_no:3 ~letters:sequence1
let table4 = eval_table ~table_no:4 ~letters:sequence2
let table5 = eval_table ~table_no:5 ~letters:sequence3

(* ------------------------------------------------------------------ *)
(* Section 4.1 / Theorem 15: hitting set *)

let thm15 () =
  print_header
    "Theorem 15 (W[2]-hardness): p-HittingSet via OMQs with depth-2k \
     ontologies";
  let widths = [ 6; 6; 6; 6; 6; 7; 10 ] in
  print_row widths [ "n"; "m"; "k"; "hit?"; "omq?"; "agree"; "time(s)" ];
  List.iter
    (fun (seed, n, m, k) ->
      let h = Hitting_set.random ~seed ~n ~m ~max_edge:3 in
      let expected = Hitting_set.has_hitting_set h ~k in
      let t0 = Unix.gettimeofday () in
      let got = Hitting_set.answer_via_omq h ~k in
      let dt = Unix.gettimeofday () -. t0 in
      print_row widths
        [
          string_of_int n;
          string_of_int m;
          string_of_int k;
          string_of_bool expected;
          string_of_bool got;
          string_of_bool (expected = got);
          Printf.sprintf "%.3f" dt;
        ])
    [
      (1, 3, 2, 1); (2, 3, 2, 2); (3, 4, 3, 1); (4, 4, 3, 2); (5, 5, 3, 2);
      (6, 4, 4, 3);
    ]

(* Section 4.2 / Theorem 16: partitioned clique *)

let thm16 () =
  print_header
    "Theorem 16 (W[1]-hardness): PartitionedClique via bounded-leaf OMQs";
  let widths = [ 12; 8; 8; 7; 10 ] in
  print_row widths [ "parts"; "clique?"; "omq?"; "agree"; "time(s)" ];
  List.iter
    (fun (seed, part_sizes, prob) ->
      let g = Clique.random ~seed ~part_sizes ~edge_prob:prob in
      let expected = Clique.has_partitioned_clique g in
      let t0 = Unix.gettimeofday () in
      let got = Clique.answer_via_omq g in
      let dt = Unix.gettimeofday () -. t0 in
      print_row widths
        [
          String.concat "+" (List.map string_of_int part_sizes);
          string_of_bool expected;
          string_of_bool got;
          string_of_bool (expected = got);
          Printf.sprintf "%.3f" dt;
        ])
    [
      (1, [ 2; 2 ], 0.5); (2, [ 2; 2 ], 0.9); (3, [ 2; 2 ], 0.2);
      (4, [ 1; 2 ], 1.0); (5, [ 2; 1; 2 ], 0.9);
    ]

(* Section 5 / Theorem 17: SAT with the fixed ontology T† *)

let thm17 () =
  print_header
    "Theorem 17 (NP-hardness, fixed T†): SAT as OMQ answering over {A(a)}";
  let widths = [ 6; 6; 6; 6; 7; 10 ] in
  print_row widths [ "vars"; "claus"; "sat?"; "omq?"; "agree"; "time(s)" ];
  List.iter
    (fun (seed, nvars, nclauses) ->
      let cnf = Dpll.random_3cnf ~seed ~nvars ~nclauses in
      let expected = Dpll.satisfiable cnf in
      let t0 = Unix.gettimeofday () in
      let got = Sat.satisfiable_via_omq cnf in
      let dt = Unix.gettimeofday () -. t0 in
      print_row widths
        [
          string_of_int nvars;
          string_of_int nclauses;
          string_of_bool expected;
          string_of_bool got;
          string_of_bool (expected = got);
          Printf.sprintf "%.3f" dt;
        ])
    [ (1, 2, 3); (2, 2, 4); (3, 3, 4); (4, 3, 6); (5, 3, 8); (6, 4, 6) ];
  (* Lemma 26 spot check *)
  let cnf =
    { Dpll.nvars = 2; clauses = [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] }
  in
  let agree = ref true in
  for bits = 0 to 15 do
    let alpha = Array.init 4 (fun i -> (bits lsr i) land 1 = 1) in
    if Sat.qbar_answer cnf alpha <> Sat.f_phi cnf alpha then agree := false
  done;
  Printf.printf "Lemma 26 (qbar over tree instances, all 16 alpha): agree=%b\n"
    !agree

(* Section 5 / Theorem 22: hardest CFL with the fixed ontology T‡ *)

let thm22 () =
  print_header
    "Theorem 22 (LOGCFL-hardness, fixed T‡): hardest CFL as linear OMQs";
  let widths = [ 26; 6; 6; 7; 10 ] in
  print_row widths [ "word"; "inL?"; "omq?"; "agree"; "time(s)" ];
  List.iter
    (fun w ->
      let expected = Cfl.in_hardest_language w in
      let t0 = Unix.gettimeofday () in
      let got = Cfl.answer_via_omq w in
      let dt = Unix.gettimeofday () -. t0 in
      print_row widths
        [
          w;
          string_of_bool expected;
          string_of_bool got;
          string_of_bool (expected = got);
          Printf.sprintf "%.3f" dt;
        ])
    [
      "[a1a2#b2b1]";
      "[a1a2#b2b1][b2b1]";
      "[a1a2#b2b1][a1b1]";
      "[#a1a2#b2b1][a1b1]";
      "[a1b1]";
      "[a1][b1]";
      "[a2][b2]";
      "[a1b1#a2]";
    ]

(* Section 5 / Theorem 21: evaluating PE-queries over tree instances *)

let thm21 () =
  print_header
    "Theorem 21 (PE evaluation is NP-hard): q_m over the tree instances";
  let widths = [ 6; 8; 10; 6; 6; 7; 10 ] in
  print_row widths [ "k"; "m"; "|q_m|"; "sat?"; "pe?"; "agree"; "time(s)" ];
  let nvars = 3 in
  let q = Pe.query_qm ~nvars in
  List.iter
    (fun bits ->
      let flags = Array.init 8 (fun i -> (bits lsr i) land 1 = 1) in
      let cnf = Dpll.all_clauses_3cnf nvars in
      let expected = Dpll.satisfiable (Dpll.remove_clauses cnf flags) in
      let alpha = Pe.qm_alpha_of_clause_flags ~nvars flags in
      let abox = Sat.tree_instance alpha in
      let t0 = Unix.gettimeofday () in
      let got = Pe.holds abox [ ("x", Sat.tree_root) ] q in
      let dt = Unix.gettimeofday () -. t0 in
      print_row widths
        [
          string_of_int nvars;
          string_of_int (Pe.qm_clause_count ~nvars);
          string_of_int (Pe.size q);
          string_of_bool expected;
          string_of_bool got;
          string_of_bool (expected = got);
          Printf.sprintf "%.3f" dt;
        ])
    [ 0; 1; 17; 85; 170; 254; 255 ]

(* Fig. 1(b): succinctness — PE-rewriting sizes vs NDL-rewriting sizes *)

let fig1b () =
  print_header
    "Fig. 1(b): size of PE-rewritings vs NDL-rewritings (complete instances)";
  let tbox = example11 () in
  let widths = [ 6; 10; 10; 10; 10 ] in
  List.iter
    (fun (i, letters) ->
      Printf.printf "\nSequence %d: %s\n" i letters;
      print_row widths [ "atoms"; "PE-size"; "PE-depth"; "Lin-NDL"; "Tw-NDL" ];
      for n = 1 to min !max_len (String.length letters) do
        let q = prefix_query letters n in
        let omq = Omq.make tbox q in
        let pe = Obda_rewriting.Pe_rewriter.rewrite tbox q in
        print_row widths
          [
            string_of_int n;
            string_of_int (Obda_rewriting.Pe_rewriter.size pe);
            string_of_int (Obda_rewriting.Pe_rewriter.matrix_depth pe);
            string_of_int (Ndl.num_clauses (Omq.rewrite ~over:`Complete Omq.Lin omq));
            string_of_int (Ndl.num_clauses (Omq.rewrite ~over:`Complete Omq.Tw omq));
          ]
      done)
    sequences;
  print_endline
    "(PE grows super-polynomially where the NDL rewritings stay linear — \
     the Fig. 1(b) gap)"

(* Adaptive (cost-based) strategy vs the fixed strategies *)

let adaptive () =
  print_header
    "Adaptive splitting (Section 6 future work): cost-based choice vs fixed";
  let tbox = example11 () in
  let ds = datasets ~scale:!scale tbox in
  let widths = [ 8; 6; 16; 10; 10 ] in
  print_row widths [ "dataset"; "atoms"; "chosen"; "est.cost"; "time(s)" ];
  List.iter
    (fun (dname, _, abox) ->
      List.iter
        (fun n ->
          let q = prefix_query sequence1 n in
          let c = Obda_rewriting.Adaptive.choose tbox q abox in
          let o = evaluate ~timeout:!timeout c.Obda_rewriting.Adaptive.query abox in
          print_row widths
            [
              dname;
              string_of_int n;
              c.Obda_rewriting.Adaptive.name;
              Printf.sprintf "%.0f" c.Obda_rewriting.Adaptive.cost;
              cell_of_outcome `Time o;
            ])
        [ 4; 8; 12; 15 ])
    ds

(* Splitting-strategy ablation (the Section 6 discussion: none of the three
   strategies dominates, and the choice of splitting points matters) *)

let ablation () =
  print_header
    "Ablation: splitting strategies (Lin root choice; Tw vs Tw* inlining)";
  let tbox = example11 () in
  let _, _, abox =
    build_dataset ~scale:!scale tbox (List.nth Obda_data.Generate.table2_params 1)
  in
  let widths = [ 7; 16; 9; 10; 10 ] in
  print_row widths [ "atoms"; "variant"; "clauses"; "time(s)"; "#tup" ];
  List.iter
    (fun n ->
      let q = prefix_query sequence1 n in
      let omq = Omq.make tbox q in
      let variants =
        [
          ( "Lin/root=x0",
            Obda_ndl.Star.complete_to_arbitrary_linear tbox
              (Obda_rewriting.Lin_rewriter.rewrite ~root:"x0" tbox q) );
          ( Printf.sprintf "Lin/root=x%d" n,
            Obda_ndl.Star.complete_to_arbitrary_linear tbox
              (Obda_rewriting.Lin_rewriter.rewrite
                 ~root:(Printf.sprintf "x%d" n) tbox q) );
          ( Printf.sprintf "Lin/root=x%d" (n / 2),
            Obda_ndl.Star.complete_to_arbitrary_linear tbox
              (Obda_rewriting.Lin_rewriter.rewrite
                 ~root:(Printf.sprintf "x%d" (n / 2)) tbox q) );
          ("Tw", Omq.rewrite Omq.Tw omq);
          ("Tw*", Obda_ndl.Optimize.inline_single_use (Omq.rewrite Omq.Tw omq));
        ]
      in
      List.iter
        (fun (name, query) ->
          let o = evaluate ~timeout:!timeout query abox in
          print_row widths
            [
              string_of_int n;
              name;
              string_of_int (Ndl.num_clauses query);
              cell_of_outcome `Time o;
              cell_of_outcome `Tuples o;
            ])
        variants)
    [ 4; 8; 12; 15 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table *)

let micro () =
  print_header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let tbox = example11 () in
  let q8 = prefix_query sequence1 8 in
  let omq8 = Omq.make tbox q8 in
  let _, _, small_abox =
    build_dataset ~scale:0.02 tbox (List.hd Obda_data.Generate.table2_params)
  in
  let lin_q = Omq.rewrite Omq.Lin omq8 in
  let tests =
    [
      Test.make ~name:"fig1:classify"
        (Staged.stage (fun () -> Omq.classify omq8));
      Test.make ~name:"table1:rewrite-Lin(seq1,8)"
        (Staged.stage (fun () -> Omq.rewrite Omq.Lin omq8));
      Test.make ~name:"table1:rewrite-Log(seq1,8)"
        (Staged.stage (fun () -> Omq.rewrite Omq.Log omq8));
      Test.make ~name:"table1:rewrite-Tw(seq1,8)"
        (Staged.stage (fun () -> Omq.rewrite Omq.Tw omq8));
      Test.make ~name:"table2:generate-dataset1(small)"
        (Staged.stage (fun () ->
             build_dataset ~scale:0.02 tbox
               (List.hd Obda_data.Generate.table2_params)));
      Test.make ~name:"table3-5:eval-Lin(seq1,8,small)"
        (Staged.stage (fun () -> Obda_ndl.Eval.run lin_q small_abox));
      Test.make ~name:"thm17:sat-omq(2vars)"
        (Staged.stage (fun () ->
             Sat.satisfiable_via_omq
               { Dpll.nvars = 2; clauses = [ [ 1; 2 ]; [ -1 ] ] }));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates tests =
    let grouped = Test.make_grouped ~name:"obda" tests in
    let results = Benchmark.all cfg [ instance ] grouped in
    Analyze.all ols instance results
  in
  Hashtbl.iter
    (fun name est ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Printf.printf "%-42s %14.0f ns/run\n" name t
      | _ -> Printf.printf "%-42s (no estimate)\n" name)
    (estimates tests);
  (* Ndl.Eval's relation layer, over a binary relation the size of the Lin
     cells' intermediate relations (a 250 x 240 grid): a run is one
     operation per row, reported per operation.  An add inserts into a
     fresh relation, buffer and table growth included; a probe looks up a
     full-row key through a maintained index and walks its one match. *)
  let module I = Obda_ndl.Eval.Internal in
  let n = 60_000 in
  let rows = Array.init n (fun i -> [| i mod 250; 250 + (i / 250) |]) in
  let grid = I.relation_create 2 in
  Array.iter (fun row -> ignore (I.add_row grid row)) rows;
  let probe = I.prober grid [ 0; 1 ] in
  let layer =
    [
      ( "relation_add_ns",
        Test.make ~name:"ndl:relation-add(60k binary rows)"
          (Staged.stage (fun () ->
               let r = I.relation_create 2 in
               Array.iter (fun row -> ignore (I.add_row r row)) rows)) );
      ( "index_probe_ns",
        Test.make ~name:"ndl:index-probe(60k binary rows)"
          (Staged.stage (fun () ->
               Array.iter (fun key -> ignore (probe key)) rows)) );
    ]
  in
  let analyzed = estimates (List.map snd layer) in
  List.iter
    (fun (key, test) ->
      let name = "obda/" ^ Test.name test in
      let est = Hashtbl.find_opt analyzed name in
      match Option.bind est Analyze.OLS.estimates with
      | Some [ t ] ->
        let per_op = t /. float_of_int n in
        record_float key per_op;
        Printf.printf "%-42s %14.1f ns/op\n" name per_op
      | _ -> Printf.printf "%-42s (no estimate)\n" name)
    layer

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the full Fig. 2 pipeline (rewrite + evaluate) under
   no sink (the default), the null sink, and the in-memory collector.  The
   disabled configuration is the one every untraced request runs in; its
   per-event cost is a single load-and-branch, and the comparison against
   the sink configurations bounds it from above. *)

let obs_overhead () =
  print_header
    "Telemetry overhead: Fig. 2 pipeline (Tw rewrite + eval) per sink";
  let module Obs = Obda_obs.Obs in
  let tbox = example11 () in
  let q = prefix_query sequence1 8 in
  let omq = Omq.make tbox q in
  let _, _, abox =
    build_dataset ~scale:0.02 tbox (List.hd Obda_data.Generate.table2_params)
  in
  let pipeline () =
    let query = Omq.rewrite Omq.Tw omq in
    ignore (Obda_ndl.Eval.run query abox)
  in
  let iterations = 40 in
  let time_config label install teardown =
    (* warm up (symbol tables, minor heap shape) before the timed runs *)
    for _ = 1 to 5 do
      pipeline ()
    done;
    install ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iterations do
      pipeline ()
    done;
    let per_run = (Unix.gettimeofday () -. t0) /. float_of_int iterations in
    teardown ();
    (label, per_run)
  in
  let configs =
    [
      time_config "disabled (no sink)" ignore ignore;
      time_config "null sink"
        (fun () -> Obs.install Obs.null_sink)
        Obs.uninstall;
      time_config "collector sink"
        (fun () -> Obs.install (Obs.Collector.sink (Obs.Collector.create ())))
        Obs.uninstall;
    ]
  in
  let _, baseline = List.hd configs in
  let widths = [ 20; 12; 10 ] in
  print_row widths [ "configuration"; "ms/run"; "overhead" ];
  List.iter
    (fun (label, per_run) ->
      print_row widths
        [
          label;
          Printf.sprintf "%.3f" (per_run *. 1000.);
          Printf.sprintf "%+.1f%%" ((per_run /. baseline -. 1.) *. 100.);
        ])
    configs;
  print_endline
    "(disabled is the default of every request; the deltas bound the cost \
     of the per-event branch)";
  (* the disabled path itself: one counter event is a load and a branch *)
  let n = 10_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Obs.incr "overhead.probe"
  done;
  let per_event = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Printf.printf
    "disabled counter event: %.2f ns (%d events ~ %.4f ms per pipeline run)\n"
    (per_event *. 1e9) 1000
    (per_event *. 1000. *. 1000.);
  (* the fault-site guard when no --inject plan is armed: same shape, one
     load and one branch (acceptance: <= 5 ns per guarded site) *)
  let module Fault = Obda_runtime.Fault in
  assert (not (Fault.armed ()));
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Fault.hit Fault.chase_step
  done;
  let per_site = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Printf.printf "disabled fault-site check: %.2f ns per guarded site\n"
    (per_site *. 1e9);
  (* the serving path's latency histograms: a disarmed record is the same
     load-and-branch as a counter event; an armed record is a frexp, three
     mantissa compares and two fetch-and-adds — no logarithm, no lock
     (acceptance: disarmed <= 5 ns, armed <= 50 ns per event) *)
  let module Histogram = Obda_obs.Histogram in
  let h = Histogram.create ~scale:1e9 "overhead.probe.hist" in
  let prev = Histogram.recording () in
  Histogram.set_enabled false;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Histogram.record h 0.000123
  done;
  let disarmed = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Histogram.set_enabled true;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Histogram.record h 0.000123
  done;
  let armed = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Histogram.set_enabled prev;
  Printf.printf
    "histogram record: %.2f ns disarmed, %.2f ns armed per event\n"
    (disarmed *. 1e9) (armed *. 1e9);
  record_float "hist_record_disarmed_ns" (disarmed *. 1e9);
  record_float "hist_record_armed_ns" (armed *. 1e9)

(* ------------------------------------------------------------------ *)
(* The service layer's amortisation claim: answering through a prepared
   query (rewrite once, evaluate many) vs re-running the cold pipeline
   per request, on the Fig. 2 OMQ sequence over a small dataset (so the
   rewrite dominates and the cache is what matters).  The cached-prepare
   column re-issues PREPARE before every ANSWER — the re-prepare is a
   content-addressed cache hit, so it should track the prepared column,
   not the cold one. *)

let service_cache () =
  print_header
    "service-cache: cold pipeline vs prepared vs cached re-prepare (Fig. 2 \
     sequence 1)";
  let module Session = Obda_service.Session in
  let module Obs = Obda_obs.Obs in
  let tbox = example11 () in
  let _, _, abox =
    build_dataset ~scale:0.01 tbox (List.hd Obda_data.Generate.table2_params)
  in
  let requests = 25 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let widths = [ 7; 11; 11; 11; 9; 9 ] in
  print_row widths
    [ "atoms"; "cold"; "prepared"; "cached"; "speedup"; "hit-rate" ];
  let total_speedup = ref 0. and rows = ref 0 in
  List.iter
    (fun n ->
      let cq = prefix_query sequence1 n in
      (* cold: a fresh session per request — parse-free, but every request
         pays classification + rewriting + consistency from scratch *)
      let cold =
        time (fun () ->
            for _ = 1 to requests do
              let s = Session.create () in
              Session.load_ontology s tbox;
              Session.load_data s abox;
              let p, _ = Session.prepare s ~name:"q" cq in
              ignore (Session.answer s p)
            done)
      in
      (* prepared: rewrite once, answer [requests] times; cached: a
         PREPARE + ANSWER pair per request on the same session, so every
         re-prepare is a content-addressed cache hit *)
      let session = Session.create () in
      Session.load_ontology session tbox;
      Session.load_data session abox;
      let (prepared_t, cached_t), collector =
        Obs.collecting (fun () ->
            let p, _ = Session.prepare session ~name:"q" cq in
            let prepared_t =
              time (fun () ->
                  for _ = 1 to requests do
                    ignore (Session.answer session p)
                  done)
            in
            let cached_t =
              time (fun () ->
                  for _ = 1 to requests do
                    let p, _ = Session.prepare session ~name:"q" cq in
                    ignore (Session.answer session p)
                  done)
            in
            (prepared_t, cached_t))
      in
      (* hit-rate from the telemetry collector: one miss for the initial
         prepare, a hit per cached re-prepare *)
      let hits = Obs.Collector.counter collector "service.cache.hit" in
      let misses = Obs.Collector.counter collector "service.cache.miss" in
      let speedup = cold /. prepared_t in
      total_speedup := !total_speedup +. speedup;
      incr rows;
      print_row widths
        [
          string_of_int n;
          Printf.sprintf "%.2fms" (cold /. float_of_int requests *. 1e3);
          Printf.sprintf "%.2fms" (prepared_t /. float_of_int requests *. 1e3);
          Printf.sprintf "%.2fms" (cached_t /. float_of_int requests *. 1e3);
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%d/%d" hits (hits + misses);
        ])
    [ 4; 6; 8; 10; 12 ];
  record_float "mean_speedup" (!total_speedup /. float_of_int !rows);
  Printf.printf
    "mean prepared-vs-cold speedup: %.1fx over %d query sizes (acceptance: \
     >= 5x)\n"
    (!total_speedup /. float_of_int !rows)
    !rows

(* ------------------------------------------------------------------ *)
(* Parallel evaluation scaling: one Tw rewriting of the Fig. 2 sequence,
   evaluated sequentially and on 2- and 4-worker pools over the largest
   Table 2 dataset.  The answer sets must be identical at every worker
   count (the partition merge re-sorts, so this is the byte-identical
   contract of `--jobs`); the speedup column is bounded by however many
   cores the machine actually has. *)

let par_scaling () =
  print_header
    "par-scaling: one Tw rewriting, 1/2/4 evaluation workers (largest \
     Table 2 dataset)";
  let module Pool = Obda_runtime.Pool in
  let tbox = example11 () in
  let largest =
    List.nth Obda_data.Generate.table2_params
      (List.length Obda_data.Generate.table2_params - 1)
  in
  let dname, _, abox = build_dataset ~scale:!scale tbox largest in
  Printf.printf "dataset %s: %d atoms over %d individuals, %d cores\n" dname
    (Obda_data.Abox.num_atoms abox)
    (Obda_data.Abox.num_individuals abox)
    (Domain.recommended_domain_count ());
  let widths = [ 7; 9; 10; 9; 10; 11 ] in
  print_row widths [ "atoms"; "workers"; "time(s)"; "speedup"; "#tup"; "identical" ];
  let speedup4 = ref [] in
  List.iter
    (fun n ->
      let q = prefix_query sequence1 n in
      let query = Omq.rewrite Omq.Tw (Omq.make tbox q) in
      let run jobs =
        let t0 = Unix.gettimeofday () in
        let r =
          if jobs = 1 then Eval.run query abox
          else Pool.with_pool ~jobs (fun pool -> Eval.run ~pool query abox)
        in
        (Unix.gettimeofday () -. t0, r)
      in
      let t1, r1 = run 1 in
      List.iter
        (fun jobs ->
          let t, r = if jobs = 1 then (t1, r1) else run jobs in
          let speedup = t1 /. t in
          if jobs = 4 then speedup4 := speedup :: !speedup4;
          print_row widths
            [
              string_of_int n;
              string_of_int jobs;
              Printf.sprintf "%.3f" t;
              Printf.sprintf "%.2fx" speedup;
              string_of_int r.Eval.generated_tuples;
              (if r.Eval.answers = r1.Eval.answers then "yes" else "NO");
            ])
        [ 1; 2; 4 ])
    [ 8; 12; 15 ];
  let mean =
    List.fold_left ( +. ) 0. !speedup4 /. float_of_int (List.length !speedup4)
  in
  record_float "mean_speedup_4w" mean;
  Printf.printf
    "mean 4-worker speedup: %.2fx on %d core(s) (acceptance: >= 2x given >= \
     4 cores)\n"
    mean
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Cost-based join planning + semi-naïve delta evaluation vs the naïve
   baseline (--naive: written-order heuristic, index-only access, full
   re-derivation per fixpoint round), on the Table 2 datasets.  Two legs
   per dataset: the Tw rewriting of the Fig. 2 sequence (planning reorders
   the rewriting's clause bodies), and a recursive transitive closure over
   the dataset's R edges (semi-naïve deltas bound re-derivation).  Answers
   must be byte-identical to the baseline and across 1/2/4 workers; the
   acceptance gate runs on the largest dataset. *)

let eval_plan () =
  print_header
    (Printf.sprintf
       "eval-plan: cost-based planning + semi-naïve evaluation vs the naïve \
        baseline (scale %g)"
       !scale);
  let module Pool = Obda_runtime.Pool in
  let module Eval = Obda_ndl.Eval in
  let tbox = example11 () in
  let ds = datasets ~scale:!scale tbox in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let seq_query =
    Omq.rewrite Omq.Tw (Omq.make tbox (prefix_query sequence1 12))
  in
  let tc_query =
    let v x = Ndl.Var x in
    let tc = Symbol.intern "TC" and r = Symbol.intern "R" in
    Ndl.make ~goal:tc ~goal_args:[ "x"; "y" ]
      [
        { Ndl.head = (tc, [ v "x"; v "y" ]); body = [ Ndl.Pred (r, [ v "x"; v "y" ]) ] };
        {
          Ndl.head = (tc, [ v "x"; v "z" ]);
          body =
            [ Ndl.Pred (tc, [ v "x"; v "y" ]); Ndl.Pred (r, [ v "y"; v "z" ]) ];
        };
      ]
  in
  let widths = [ 12; 10; 10; 12; 12; 7; 10 ] in
  print_row widths
    [
      "dataset/leg"; "naive(s)"; "plan(s)"; "naive-reads"; "plan-reads";
      "drop"; "identical";
    ]
  ;
  let identity_ok = ref true in
  let gate_failures = ref [] in
  let largest_naive = ref 0 and largest_planned = ref 0 in
  let n_datasets = List.length ds in
  List.iteri
    (fun di (dname, _, abox) ->
      List.iter
        (fun (leg, query) ->
          let tn, rn = time (fun () -> Eval.run ~naive:true query abox) in
          let tp, rp = time (fun () -> Eval.run query abox) in
          let identical =
            rp.Eval.answers = rn.Eval.answers
            && List.for_all
                 (fun jobs ->
                   Pool.with_pool ~jobs (fun pool ->
                       (Eval.run ~pool query abox).Eval.answers)
                   = rp.Eval.answers)
                 [ 2; 4 ]
          in
          if not identical then identity_ok := false;
          let drop =
            float_of_int rn.Eval.tuples_read
            /. float_of_int (max 1 rp.Eval.tuples_read)
          in
          let tag k = Printf.sprintf "%s.%s.%s" dname leg k in
          record_int (tag "naive_reads") rn.Eval.tuples_read;
          record_int (tag "planned_reads") rp.Eval.tuples_read;
          record_float (tag "naive_s") tn;
          record_float (tag "planned_s") tp;
          record_int (tag "answers") (List.length rp.Eval.answers);
          if di = n_datasets - 1 then begin
            (* acceptance gates, largest dataset.  The recursive leg is
               where semi-naïve evaluation must win outright: strictly
               fewer tuple reads AND less wall clock than full
               re-derivation.  On the non-recursive rewriting the legacy
               written-order heuristic is already near-optimal for this
               query shape, and the planner deliberately trades a handful
               of reads for time (scanning ≤16-tuple relations instead of
               probing), so the gate there is "no regression": within 1%
               of the baseline's reads.  The combined largest-dataset
               total must still drop strictly. *)
            largest_naive := !largest_naive + rn.Eval.tuples_read;
            largest_planned := !largest_planned + rp.Eval.tuples_read;
            if leg = "tc" then begin
              if rp.Eval.tuples_read >= rn.Eval.tuples_read then
                gate_failures :=
                  Printf.sprintf "tc: planned reads %d >= naive %d"
                    rp.Eval.tuples_read rn.Eval.tuples_read
                  :: !gate_failures;
              if tp >= tn then
                gate_failures :=
                  Printf.sprintf "tc: planned %.3fs >= naive %.3fs" tp tn
                  :: !gate_failures
            end
            else if
              float_of_int rp.Eval.tuples_read
              > 1.01 *. float_of_int rn.Eval.tuples_read
            then
              gate_failures :=
                Printf.sprintf "%s: planned reads %d regress past naive %d"
                  leg rp.Eval.tuples_read rn.Eval.tuples_read
                :: !gate_failures
          end;
          print_row widths
            [
              dname ^ "/" ^ leg;
              Printf.sprintf "%.3f" tn;
              Printf.sprintf "%.3f" tp;
              string_of_int rn.Eval.tuples_read;
              string_of_int rp.Eval.tuples_read;
              Printf.sprintf "%.1fx" drop;
              (if identical then "yes" else "NO");
            ])
        [ ("seq1", seq_query); ("tc", tc_query) ])
    ds;
  record_int "largest.naive_reads" !largest_naive;
  record_int "largest.planned_reads" !largest_planned;
  Printf.printf "largest dataset totals: %d planned reads vs %d naive\n"
    !largest_planned !largest_naive;
  if !largest_planned >= !largest_naive then
    gate_failures :=
      Printf.sprintf "largest-dataset total: planned reads %d >= naive %d"
        !largest_planned !largest_naive
      :: !gate_failures;
  if not !identity_ok then
    failwith "eval-plan: answers differ between engines or worker counts";
  match !gate_failures with
  | [] ->
    print_endline
      "acceptance: ok — semi-naïve evaluation reads strictly fewer tuples \
       (and is faster) than full re-derivation on the largest dataset's \
       recursive leg, planning does not regress the rewriting leg, and \
       answers are byte-identical at 1/2/4 workers"
  | fs -> failwith ("eval-plan acceptance gate: " ^ String.concat "; " fs)

let experiments =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("thm15", thm15);
    ("thm16", thm16);
    ("thm17", thm17);
    ("thm22", thm22);
    ("thm21", thm21);
    ("fig1b", fig1b);
    ("adaptive", adaptive);
    ("ablation", ablation);
    ("micro", micro);
    ("obs-overhead", obs_overhead);
    ("service-cache", service_cache);
    ("par-scaling", par_scaling);
    ("eval-plan", eval_plan);
    ("serve-load", Serve_load.run);
  ]

let () =
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--timeout" :: v :: rest ->
      timeout := float_of_string v;
      parse rest
    | "--max-len" :: v :: rest ->
      max_len := int_of_string v;
      parse rest
    | "--max-cqs" :: v :: rest ->
      max_cqs := int_of_string v;
      parse rest
    | name :: rest when List.mem_assoc name experiments ->
      chosen := name :: !chosen;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\nusage: main.exe [%s] [--scale X] [--timeout S] \
         [--max-len N] [--max-cqs N]\n"
        arg
        (String.concat "|" (List.map fst experiments));
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let to_run =
    if !chosen = [] then List.map fst experiments else List.rev !chosen
  in
  (* one broken experiment must not take down the remaining tables; every
     experiment — aborted or not — appends its timestamped row to
     BENCH_<experiment>.json *)
  List.iter
    (fun name ->
      reset_metrics ();
      let t0 = Unix.gettimeofday () in
      let status =
        try
          (List.assoc name experiments) ();
          "ok"
        with exn ->
          flush stdout;
          let msg =
            match Obda_runtime.Error.of_exn exn with
            | Some e -> Obda_runtime.Error.to_string e
            | None -> Printexc.to_string exn
          in
          Printf.printf "experiment %s aborted: %s\n%!" name msg;
          "aborted"
      in
      persist_experiment ~name ~duration:(Unix.gettimeofday () -. t0) ~status)
    to_run
