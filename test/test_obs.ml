(* The telemetry layer: span nesting, counter/gauge aggregation, the
   JSON-lines sink (round-tripped through our own parser), the disabled
   fast path, and span outcomes under typed errors. *)

module Obs = Obda_obs.Obs
module Json = Obda_obs.Json
module Error = Obda_runtime.Error

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let (), c =
    Obs.collecting (fun () ->
        Obs.with_span "root" (fun () ->
            Obs.with_span "child1" (fun () -> ());
            Obs.with_span "child2" (fun () ->
                Obs.with_span "grandchild" (fun () -> ()))))
  in
  (* completion order: a parent closes after its children *)
  let names = List.map (fun (s : Obs.span) -> s.Obs.name) (Obs.Collector.spans c) in
  Alcotest.(check (list string))
    "completion order"
    [ "child1"; "grandchild"; "child2"; "root" ]
    names;
  let find name =
    List.find (fun (s : Obs.span) -> s.Obs.name = name) (Obs.Collector.spans c)
  in
  let root = find "root" in
  let child1 = find "child1" in
  let child2 = find "child2" in
  let grandchild = find "grandchild" in
  check "root has no parent" true (root.Obs.parent = None);
  check_int "root depth" 0 root.Obs.depth;
  check "child1 parented to root" true (child1.Obs.parent = Some root.Obs.id);
  check "child2 parented to root" true (child2.Obs.parent = Some root.Obs.id);
  check "grandchild parented to child2" true
    (grandchild.Obs.parent = Some child2.Obs.id);
  check_int "grandchild depth" 2 grandchild.Obs.depth;
  List.iter
    (fun (s : Obs.span) ->
      check "span completed" true (s.Obs.outcome = Obs.Completed);
      check "span duration non-negative" true (s.Obs.duration >= 0.))
    (Obs.Collector.spans c)

(* Spans nest per domain: two domains each open spans with a child inside,
   at the same time; every child is parented to its own domain's span,
   at depth 1, and every parent is a root. *)
let test_spans_nest_per_domain () =
  let work d () =
    for _ = 1 to 500 do
      Obs.with_span "outer" ~attrs:[ ("d", d) ] (fun () ->
          Obs.with_span "inner" ~attrs:[ ("d", d) ] ignore)
    done
  in
  let (), c =
    Obs.collecting (fun () ->
        let other = Domain.spawn (work "1") in
        work "0" ();
        Domain.join other)
  in
  let spans = Obs.Collector.spans c in
  let by_id = Hashtbl.create 2000 in
  List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.id s) spans;
  check_int "every span recorded" 2000 (List.length spans);
  List.iter
    (fun (s : Obs.span) ->
      match (s.Obs.name, s.Obs.parent) with
      | "outer", parent ->
        check "an outer span is a root" true (parent = None && s.Obs.depth = 0)
      | _, Some p ->
        let outer = Hashtbl.find by_id p in
        check "an inner span's parent is its own domain's" true
          (outer.Obs.name = "outer" && outer.Obs.attrs = s.Obs.attrs
          && s.Obs.depth = 1)
      | _, None -> Alcotest.fail "an inner span without a parent")
    spans

let test_counter_aggregation () =
  let (), c =
    Obs.collecting (fun () ->
        Obs.incr "t.hits";
        Obs.count "t.hits" 4;
        Obs.incr "t.hits";
        Obs.incr "t.other";
        (* gauges: last write wins *)
        Obs.set_int "t.gauge" 3;
        Obs.set_int "t.gauge" 42;
        Obs.set_float "t.ratio" 0.5;
        check_int "counter readable while collecting" 6
          (Obs.counter_value "t.hits"))
  in
  check_int "hits total" 6 (Obs.Collector.counter c "t.hits");
  check_int "other total" 1 (Obs.Collector.counter c "t.other");
  check_int "absent counter is 0" 0 (Obs.Collector.counter c "t.absent");
  check "gauge last write wins" true
    (Obs.Collector.gauge_int c "t.gauge" = Some 42);
  check "float gauge" true (Obs.Collector.gauge_float c "t.ratio" = Some 0.5);
  (* metrics are flushed sorted by name *)
  let names = List.map (fun (n, _, _) -> n) (Obs.Collector.metrics c) in
  Alcotest.(check (list string))
    "sorted metric names"
    [ "t.gauge"; "t.hits"; "t.other"; "t.ratio" ]
    names

let test_json_lines_roundtrip () =
  let buf = Buffer.create 256 in
  let sink = Obs.json_sink (fun line -> Buffer.add_string buf (line ^ "\n")) in
  Obs.install sink;
  Obs.with_span "outer" ~attrs:[ ("algorithm", "Tw") ] (fun () ->
      Obs.with_span "inner" (fun () -> Obs.incr "t.events"));
  Obs.set_int "t.final" 7;
  Obs.uninstall ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check "several lines written" true (List.length lines >= 4);
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok v -> v
        | Error e -> Alcotest.failf "unparsable trace line %S: %s" line e)
      lines
  in
  let mem k v = Option.value ~default:Json.Null (Json.member k v) in
  let typ v = Json.to_string_opt (mem "type" v) in
  let spans = List.filter (fun v -> typ v = Some "span") parsed in
  let metrics = List.filter (fun v -> typ v = Some "metric") parsed in
  check_int "two spans" 2 (List.length spans);
  check "every line is a span or metric" true
    (List.length spans + List.length metrics = List.length parsed);
  (* the inner span closes first and points at the outer one *)
  (match spans with
  | [ inner; outer ] ->
    check "inner name" true
      (Json.to_string_opt (mem "name" inner) = Some "inner");
    check "outer name" true
      (Json.to_string_opt (mem "name" outer) = Some "outer");
    check "inner.parent = outer.id" true
      (Json.to_int_opt (mem "parent" inner)
      = Json.to_int_opt (mem "id" outer));
    check "outcome ok" true
      (Json.to_string_opt (mem "outcome" outer) = Some "ok");
    check "attrs survive" true
      (Json.to_string_opt (mem "algorithm" (mem "attrs" outer))
      = Some "Tw")
  | _ -> Alcotest.fail "expected exactly two span lines");
  let metric name =
    List.find_opt
      (fun v -> Json.to_string_opt (mem "name" v) = Some name)
      metrics
  in
  (match metric "t.events" with
  | Some v ->
    check "counter kind" true
      (Json.to_string_opt (mem "kind" v) = Some "counter");
    check "counter value" true (Json.to_int_opt (mem "value" v) = Some 1)
  | None -> Alcotest.fail "t.events metric missing");
  match metric "t.final" with
  | Some v ->
    check "gauge kind" true
      (Json.to_string_opt (mem "kind" v) = Some "gauge");
    check "gauge value" true (Json.to_int_opt (mem "value" v) = Some 7)
  | None -> Alcotest.fail "t.final metric missing"

let test_disabled_noop () =
  check "disabled by default" false (Obs.enabled ());
  (* recording is a no-op and allocates no visible state *)
  Obs.incr "t.ghost";
  Obs.count "t.ghost" 10;
  Obs.set_int "t.ghost_gauge" 5;
  check_int "counter invisible when disabled" 0 (Obs.counter_value "t.ghost");
  check "gauge invisible when disabled" true
    (Obs.gauge_value "t.ghost_gauge" = None);
  check_int "with_span is transparent" 41 (Obs.with_span "t" (fun () -> 41));
  (* ...and nothing recorded while disabled leaks into a later collector *)
  let (), c = Obs.collecting (fun () -> ()) in
  check_int "no leakage" 0 (Obs.Collector.counter c "t.ghost");
  check "no spans" true (Obs.Collector.spans c = [])

let test_span_outcome_on_error () =
  let c = Obs.Collector.create () in
  Obs.install (Obs.Collector.sink c);
  (try
     Obs.with_span "doomed" (fun () ->
         Error.not_applicable ~algorithm:"X" "shape is wrong")
   with Error.Obda_error (Error.Not_applicable _) -> ());
  (try Obs.with_span "broken" (fun () -> failwith "boom") with Failure _ -> ());
  (try Obs.with_span "foreign" (fun () -> raise Exit) with Exit -> ());
  Obs.uninstall ();
  check "disabled again after uninstall" false (Obs.enabled ());
  match Obs.Collector.spans c with
  | [ doomed; broken; foreign ] ->
    check "typed error class" true
      (doomed.Obs.outcome = Obs.Failed "not-applicable");
    check "Failure maps to the internal class" true
      (broken.Obs.outcome = Obs.Failed "internal");
    check "foreign exception class" true
      (foreign.Obs.outcome = Obs.Failed "exception")
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_collecting_restores_outer_sink () =
  let outer = Obs.Collector.create () in
  Obs.install (Obs.Collector.sink outer);
  Obs.incr "t.outer";
  let (), inner = Obs.collecting (fun () -> Obs.incr "t.inner") in
  Obs.incr "t.outer";
  Obs.uninstall ();
  check_int "inner sees only inner" 0 (Obs.Collector.counter inner "t.outer");
  check_int "inner counted" 1 (Obs.Collector.counter inner "t.inner");
  check_int "outer kept counting" 2 (Obs.Collector.counter outer "t.outer");
  check_int "outer missed the bracket" 0 (Obs.Collector.counter outer "t.inner")

(* ------------------------------------------------------------------ *)
(* the zero-dependency JSON parser used by the sinks and the corpus *)

let test_json_parser () =
  let roundtrip v = Json.parse (Json.to_string v) in
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.String "a \"quoted\" line\nwith\tescapes";
      Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ];
      Json.Assoc
        [ ("name", Json.String "ndl.size"); ("value", Json.Int 65) ];
    ]
  in
  List.iter
    (fun v ->
      match roundtrip v with
      | Ok v' ->
        check_str "roundtrip" (Json.to_string v) (Json.to_string v')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    cases;
  check "trailing garbage rejected" true
    (match Json.parse "{\"a\":1} x" with Error _ -> true | Ok _ -> false);
  check "truncated object rejected" true
    (match Json.parse "{\"a\":" with Error _ -> true | Ok _ -> false);
  check "unicode escapes decode" true
    (match Json.parse "\"\\u0041\\u00e9\"" with
    | Ok (Json.String "Aé") -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* the latency histograms and their Prometheus-text exposition *)

module Histogram = Obda_obs.Histogram
module Exposition = Obda_obs.Exposition

let with_histograms f =
  let prev = Histogram.recording () in
  Histogram.set_enabled true;
  Fun.protect ~finally:(fun () -> Histogram.set_enabled prev) f

(* a deterministic LCG stream of latencies spanning ~6 decades, so every
   run exercises the same buckets *)
let samples n seed =
  let state = ref seed in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let r = !state mod 1000 in
      1e-7 *. (1.015 ** float_of_int r))

let test_histogram_empty () =
  let h = Histogram.create "t.hist.empty" in
  let s = Histogram.snapshot h in
  check_int "bucket array length" Histogram.buckets
    (Array.length s.Histogram.scounts);
  check_int "zero total" 0 s.Histogram.total;
  check "zero sum" true (s.Histogram.sum = 0.);
  List.iter
    (fun q ->
      check "empty quantile is 0" true (Histogram.quantile s q = 0.))
    [ 0.; 0.5; 0.99; 1. ]

let test_histogram_disabled () =
  let h = Histogram.create "t.hist.off" in
  check "recording off by default in tests" false (Histogram.recording ());
  Histogram.record h 0.001;
  Histogram.record h 1.0;
  check_int "disarmed record is invisible" 0 (Histogram.snapshot h).Histogram.total

let test_histogram_bucket_invariant () =
  List.iter
    (fun v ->
      let i = Histogram.bucket_of v in
      check "bucket index in range" true (i >= 0 && i < Histogram.buckets);
      let upper = Histogram.bucket_upper i in
      check
        (Printf.sprintf "v=%g inside its bucket (%g, %g]" v
           (upper /. Histogram.ratio) upper)
        true
        (v <= upper && v > upper /. Histogram.ratio *. (1. -. 1e-12)))
    (samples 2_000 5 @ [ 1e-6; 0.001; 1.; 3.7; 1000. ])

let test_histogram_merge_across_domains () =
  with_histograms (fun () ->
      let streams = List.init 4 (fun i -> samples 5_000 ((17 * i) + 3)) in
      (* reference: all four streams recorded sequentially *)
      let seq = Histogram.create ~scale:1e9 "t.hist.seq" in
      List.iter (List.iter (Histogram.record seq)) streams;
      (* four real domains, one private histogram each *)
      let parts =
        List.map
          (fun vs ->
            Domain.spawn (fun () ->
                let h = Histogram.create ~scale:1e9 "t.hist.part" in
                List.iter (Histogram.record h) vs;
                h))
          streams
        |> List.map Domain.join
      in
      let merge order =
        let m = Histogram.create ~scale:1e9 "t.hist.merged" in
        List.iter (fun h -> Histogram.merge_into ~into:m h) order;
        Histogram.snapshot m
      in
      let s_seq = Histogram.snapshot seq in
      let s1 = merge parts in
      let s2 = merge (List.rev parts) in
      check_int "all events counted" 20_000 s_seq.Histogram.total;
      check "merged buckets = sequential buckets" true
        (s1.Histogram.scounts = s_seq.Histogram.scounts);
      check "merge is order-independent" true
        (s2.Histogram.scounts = s1.Histogram.scounts);
      check "merged sum = sequential sum (exact)" true
        (s1.Histogram.sum = s_seq.Histogram.sum);
      check "reverse-order sum agrees" true
        (s2.Histogram.sum = s1.Histogram.sum))

let test_histogram_quantiles () =
  with_histograms (fun () ->
      let n = 2_000 in
      let vs = samples n 7 in
      let h = Histogram.create ~scale:1e9 "t.hist.q" in
      List.iter (Histogram.record h) vs;
      let s = Histogram.snapshot h in
      let sorted = Array.of_list vs in
      Array.sort compare sorted;
      let prev = ref 0. in
      List.iter
        (fun q ->
          let hq = Histogram.quantile s q in
          check (Printf.sprintf "quantile monotone at q=%g" q) true
            (hq >= !prev);
          prev := hq;
          (* the exact order statistic at the same rank lies within one
             bucket ratio below the histogram's answer *)
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          check
            (Printf.sprintf "q=%g within one bucket (exact %g, hist %g)" q
               exact hq)
            true
            (exact <= hq && exact > hq /. Histogram.ratio *. (1. -. 1e-9)))
        [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ])

(* one exposition line: NAME{labels} VALUE / NAME VALUE, value split off
   the last space *)
let split_sample line =
  match String.rindex_opt line ' ' with
  | None -> Alcotest.failf "unparsable exposition line %S" line
  | Some i ->
    ( String.sub line 0 i,
      String.sub line (i + 1) (String.length line - i - 1) )

let le_of key =
  match String.index_opt key '{' with
  | None -> None
  | Some _ ->
    let marker = "le=\"" in
    let rec find i =
      if i + String.length marker > String.length key then None
      else if String.sub key i (String.length marker) = marker then
        let start = i + String.length marker in
        let close = String.index_from key start '"' in
        Some (String.sub key start (close - start))
      else find (i + 1)
    in
    find 0

let test_exposition_roundtrip () =
  with_histograms (fun () ->
      let h = Histogram.registered ~scale:1e9 "t.expo.latency" in
      Histogram.reset h;
      List.iter (Histogram.record h) (samples 500 11);
      let stats =
        Exposition.
          [
            Counter ("t.expo.rows", 3);
            Gauge ("t.expo.flag", Bool (Some true));
            Gauge ("t.expo.span", Span (Some (2, 9)));
            Gauge ("t.expo.dash", Span None);
            Gauge ("t.expo.unknown", Bool None);
          ]
      in
      let text = Exposition.render stats in
      let lines =
        String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
      in
      check "render is non-empty" true (lines <> []);
      let values = Hashtbl.create 64 in
      List.iter
        (fun line ->
          if line.[0] <> '#' then begin
            let key, v = split_sample line in
            check ("numeric value in " ^ line) true
              (v = "+Inf" || float_of_string_opt v <> None);
            Hashtbl.replace values key (float_of_string v)
          end)
        lines;
      let value key =
        match Hashtbl.find_opt values key with
        | Some v -> v
        | None -> Alcotest.failf "missing exposition sample %s" key
      in
      (* stats rows: numeric pass-through, yes/no, lo-hi spans, dashes
         and unknowns skipped *)
      check "numeric row" true (value "obda_t_expo_rows" = 3.);
      check "yes maps to 1" true (value "obda_t_expo_flag" = 1.);
      check "span lo" true (value "obda_t_expo_span_lo" = 2.);
      check "span hi" true (value "obda_t_expo_span_hi" = 9.);
      check "dash rows are skipped" true
        (not (Hashtbl.mem values "obda_t_expo_dash"));
      check "unknown rows are skipped" true
        (not (Hashtbl.mem values "obda_t_expo_unknown"));
      Alcotest.(check (list string))
        "STATS lines"
        [ "t.expo.rows 3"; "t.expo.flag yes"; "t.expo.span 2-9";
          "t.expo.dash -"; "t.expo.unknown unknown" ]
        (List.map Exposition.stats_line stats);
      (* the histogram series: cumulative non-decreasing buckets ending in
         +Inf, with a _count that equals the +Inf bucket *)
      let prefix = "obda_t_expo_latency_bucket{" in
      let bucket_lines =
        List.filter
          (fun l -> l.[0] <> '#' && String.starts_with ~prefix l)
          lines
      in
      check "histogram emits buckets" true (bucket_lines <> []);
      let last_cum = ref 0. and last_le = ref neg_infinity in
      let saw_inf = ref false in
      List.iter
        (fun line ->
          let key, v = split_sample line in
          let cum = float_of_string v in
          let le =
            match le_of key with
            | Some "+Inf" ->
              saw_inf := true;
              infinity
            | Some le -> float_of_string le
            | None -> Alcotest.failf "bucket sample without le: %s" key
          in
          check "le strictly increasing" true (le > !last_le);
          check "cumulative non-decreasing" true (cum >= !last_cum);
          last_le := le;
          last_cum := cum)
        bucket_lines;
      check "+Inf bucket present" true !saw_inf;
      check "count = +Inf cumulative" true
        (value "obda_t_expo_latency_count" = !last_cum);
      check "count = recorded events" true
        (value "obda_t_expo_latency_count" = 500.);
      check "sum positive" true (value "obda_t_expo_latency_sum" > 0.))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "spans nest per domain" `Quick
          test_spans_nest_per_domain;
        Alcotest.test_case "counter aggregation" `Quick
          test_counter_aggregation;
        Alcotest.test_case "json-lines round-trip" `Quick
          test_json_lines_roundtrip;
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "span outcome on typed error" `Quick
          test_span_outcome_on_error;
        Alcotest.test_case "collecting restores outer sink" `Quick
          test_collecting_restores_outer_sink;
        Alcotest.test_case "json parser" `Quick test_json_parser;
        Alcotest.test_case "histogram: empty snapshot" `Quick
          test_histogram_empty;
        Alcotest.test_case "histogram: disarmed record is a no-op" `Quick
          test_histogram_disabled;
        Alcotest.test_case "histogram: bucket invariant" `Quick
          test_histogram_bucket_invariant;
        Alcotest.test_case "histogram: merge across 4 domains" `Quick
          test_histogram_merge_across_domains;
        Alcotest.test_case "histogram: quantiles vs exact percentiles" `Quick
          test_histogram_quantiles;
        Alcotest.test_case "exposition round-trip" `Quick
          test_exposition_roundtrip;
      ] );
  ]
