(* paper-tables: Tables 3–5 of the paper on Table 2's dataset 2.ttl.

   One caller answers every cell — three Fig. 2 sequences × prefix
   lengths 1–15 × {Tw, Lin, Log} — one at a time and cold:
   [Parse.query_of_string] → [Omq.rewrite ~over:`Arbitrary] → [Eval.run]
   → every answer line rendered the way [obda answer] prints it.  A run
   makes a fixed number of rounds over the cells, set by its length
   alone; the first round answers every cell and the later ones repeat
   the cheaper cells (see [in_round]).  It loads Parse, Omq and Eval and
   skips the server, Session, Wal and both caches.

   Correctness: per cell, the digest of the answers agrees across Tw, Lin
   and Log and matches the digest pinned in [paper_tables.digests]. *)

module Parse = Obda_parse.Parse
module Omq = Obda_rewriting.Omq
module Eval = Obda_ndl.Eval
module Ndl = Obda_ndl.Ndl
module Symbol = Obda_syntax.Symbol
module Abox = Obda_data.Abox

let dataset = "2.ttl"
let scale = 0.05
let algorithms = [ Omq.Tw; Omq.Lin; Omq.Log ]

type cell = { seq : int; len : int; alg : Omq.algorithm; text : string }

let cells =
  List.concat_map
    (fun (seq, letters) ->
      List.concat_map
        (fun len ->
          List.map
            (fun alg -> { seq; len; alg; text = Dataset.prefix_query letters len })
            algorithms)
        (List.init (String.length letters) (fun i -> i + 1)))
    Dataset.sequences

(* Counts gathered around each call in a traced pass. *)
type counts = {
  mutable tuples_read : int;
  mutable generated : int;
  mutable answers : int;
  mutable clauses : int;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable encoded_bytes : int;
}

let counts () =
  {
    tuples_read = 0;
    generated = 0;
    answers = 0;
    clauses = 0;
    minor_words = 0.;
    major_gcs = 0;
    encoded_bytes = 0;
  }

(* Answer one cell; returns its answers and its tuple reads. *)
let answer_cell ?counts tbox abox buf cell =
  let cq = Trace.span "parse" (fun () -> Parse.query_of_string cell.text) in
  let query =
    Trace.span "rewrite" (fun () ->
        Omq.rewrite ~over:`Arbitrary cell.alg (Omq.make tbox cq))
  in
  let result =
    match counts with
    | None -> Trace.span "eval" (fun () -> Eval.run query abox)
    | Some c ->
      let g0 = Gc.quick_stat () in
      let result = Trace.span "eval" (fun () -> Eval.run query abox) in
      let g1 = Gc.quick_stat () in
      c.minor_words <- c.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      c.major_gcs <- c.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
      c.tuples_read <- c.tuples_read + result.Eval.tuples_read;
      c.generated <- c.generated + result.Eval.generated_tuples;
      c.answers <- c.answers + List.length result.Eval.answers;
      c.clauses <- c.clauses + Ndl.num_clauses query;
      result
  in
  Trace.span "encode" (fun () ->
      Buffer.clear buf;
      List.iter
        (fun tuple ->
          Buffer.add_string buf (String.concat "," (List.map Symbol.name tuple));
          Buffer.add_char buf '\n')
        result.Eval.answers;
      match counts with
      | Some c -> c.encoded_bytes <- c.encoded_bytes + Buffer.length buf
      | None -> ());
  (result.Eval.answers, result.Eval.tuples_read)

(* The digest of a cell's answers, in any order. *)
let canonical_digest answers =
  answers
  |> List.map (fun t -> String.concat "," (List.map Symbol.name t))
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The pinned digests: one line "SEQ LEN DIGEST" per (sequence, prefix
   length). *)
let pinned_file = "perfbench/paper_tables.digests"

let load_pins () =
  match open_in pinned_file with
  | exception Sys_error _ -> None
  | ic ->
    let tbl = Hashtbl.create 64 in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           Scanf.sscanf line "%d %d %s" (fun s l d -> Hashtbl.replace tbl (s, l) d)
       done
     with End_of_file -> ());
    close_in ic;
    Some tbl

type sample = { cell : int; start : float; seconds : float }

type pass = {
  wall : float;  (** time spent answering: the sum of the cells' latencies *)
  samples : sample list;  (** one per cell answered, in the order answered *)
  reads : (int * int) list;  (** (cell index, tuple reads) *)
  digests : ((int * int) * string) list;  (** per cell, in the order answered *)
  errors : string list;
}

(* Answer the cells [only] selects (every cell by default) once each, in
   the order of [order] (cell order by default); each digest is taken
   after the cell's latency was recorded, outside its span.  A full major
   collection before each cell, outside its time, keeps a cell from paying
   for the garbage of the cells before it, which a separate [obda answer]
   process would not: the big cells leave a heap of about 300 MB behind
   them.  Given a yardstick, a sample of it is taken between cells, at
   most every half second. *)
let run_pass ?counts ?(only = fun _ -> true) ?(order = Array.init (List.length cells) Fun.id) ?yard
    tbox abox =
  let buf = Buffer.create 65536 in
  let samples = ref [] and reads = ref [] and digests = ref [] and errors = ref [] in
  let all = Array.of_list cells in
  Array.iter
    (fun i ->
      let cell = all.(i) in
      if only i then begin
        Trace.set_request i;
        Option.iter Yardstick.maybe_sample yard;
        Gc.full_major ();
        let c0 = Unix.gettimeofday () in
        let answers =
          try Some (Trace.span "cell" (fun () -> answer_cell ?counts tbox abox buf cell))
          with e ->
            errors :=
              Printf.sprintf "seq%d/len%d/%s: %s" cell.seq cell.len
                (Omq.algorithm_name cell.alg) (Printexc.to_string e)
              :: !errors;
            None
        in
        samples := { cell = i; start = c0; seconds = Unix.gettimeofday () -. c0 } :: !samples;
        Option.iter
          (fun (a, r) ->
            reads := (i, r) :: !reads;
            digests := ((cell.seq, cell.len), canonical_digest a) :: !digests)
          answers
      end)
    order;
  {
    wall = Stats.sum (List.map (fun s -> s.seconds) !samples);
    samples = List.rev !samples;
    reads = List.rev !reads;
    digests = List.rev !digests;
    errors = List.rev !errors;
  }

(* Check a pass: every cell answered, Tw/Lin/Log agreeing per (sequence,
   prefix length) and, given pins, every digest equal to its pin.  Returns
   the number of failed cells and one message per failure. *)
let check_pass pins pass =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (k, d) ->
      Hashtbl.replace by_key k (d :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    pass.digests;
  let failed = ref (List.length pass.errors) in
  let messages = ref (List.map (fun e -> "error " ^ e) pass.errors) in
  Hashtbl.iter
    (fun (s, l) ds ->
      (match ds with
      | d :: rest when List.exists (( <> ) d) rest ->
        messages := Printf.sprintf "seq%d/len%d: Tw/Lin/Log digests disagree" s l :: !messages
      | _ -> ());
      match pins with
      | Some pins ->
        let pinned = Hashtbl.find_opt pins (s, l) in
        List.iter
          (fun d ->
            if Some d <> pinned then begin
              incr failed;
              messages :=
                Printf.sprintf "seq%d/len%d: digest %s, pinned %s" s l d
                  (Option.value ~default:"none" pinned)
                :: !messages
            end)
          ds
      | None -> ())
    by_key;
  (!failed, List.sort compare !messages)

(* ------------------------------------------------------------------ *)
(* One run *)

(* Set-ups per run; [setup_s] is their median.  With five, the medians of
   one ten-run set spread 0.28. *)
let setups = 9
let warmup_len = 3

(* A plain run makes one round per [round_budget_s] of its length, at
   least two.  Round 0 answers every cell and learns each cell's tuple
   reads, a count that is the same at every seed and on every host; the
   later rounds repeat a cell by its reads alone, so how many samples a
   cell's figure comes from never depends on the host's speed:

   - cheap (under [medium_reads]; 106 cells, about 2.5 s a round with the
     collections between them): every round;
   - medium (under [heavy_reads]; 21 cells, about 3.2 s): every second
     round, 0, 2, 4, ...;
   - heavy (8 cells, 13–15 s together): round 0 only.

   At 55 s that is 6 rounds, about 40 s on the 2-core host the benchmark
   was defined on: 6 samples of a cheap cell, 3 of a medium one and 1 of
   a heavy one.  A cell's figure is its fastest sample at reference speed
   (see {!Yardstick}).  The host's speed changes from second to second (a
   fixed loop read 6.1–10.5 ms as the fastest of each second over two
   minutes), and samples spread over the run let the fastest of them find
   its quick seconds.  The heavy cells weigh 8/135 in the geometric
   mean. *)
let round_budget_s = 8.5
let medium_reads = 100_000
let heavy_reads = 1_200_000

let in_round reads r i =
  let k = reads.(i) in
  r = 0 || k < medium_reads || (k < heavy_reads && r mod 2 = 0)

(* The traced passes' layer self times must cover their wall time up to
   this share; the rest is the benchmark's own loop. *)
let unattributed_tolerance = 0.02

let instance tbox = Dataset.generate ~seed:Dataset.default_seed ~scale tbox dataset

(* The order of round [k]'s cells: cell order in round 0, which holds the
   heavy cells and so the run's peak RSS (with the order drawn from the
   seed it read 246 or 264 MB); a permutation drawn from the seed in the
   later rounds. *)
let order ~seed k =
  let a = Array.init (List.length cells) Fun.id in
  let rng = Random.State.make [| seed; k |] in
  if k > 0 then
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
  a

let run ~pins ~seed ~seconds ~traced =
  let tbox = Parse.ontology_of_string Dataset.ontology_text in
  (* set-up: generate the instance, then answer the short cells once *)
  let setup () =
    let t0 = Unix.gettimeofday () in
    let abox = instance tbox in
    let buf = Buffer.create 4096 in
    List.iter (fun c -> if c.len <= warmup_len then ignore (answer_cell tbox abox buf c)) cells;
    (Unix.gettimeofday () -. t0, abox)
  in
  let all = List.init setups (fun _ -> setup ()) in
  let abox = snd (List.nth all (setups - 1)) in
  (* a traced run makes two whole passes, one traced and one plain, so
     their difference is the tracing overhead *)
  let npasses = if traced then 2 else max 2 (int_of_float (seconds /. round_budget_s)) in
  let reads = Array.make (List.length cells) 0 in
  let yard = if traced then None else Some (Yardstick.create ()) in
  let c = counts () in
  (* the peak after round 0, the only one with the heavy cells *)
  let first_pass_rss = ref nan in
  let symbols0 = ref 0 and symbols = ref 0 in
  let span_log = if traced then Some (open_out "spans.jsonl") else None in
  let rec passes k acc =
    let traced_pass = traced && k mod 2 = 0 in
    Trace.arm traced_pass;
    let s0 = Symbol.count () in
    let only = if traced then None else Some (in_round reads k) in
    let p =
      run_pass ?counts:(if traced_pass then Some c else None) ?only ~order:(order ~seed k) ?yard tbox abox
    in
    if k = 0 then List.iter (fun (i, r) -> reads.(i) <- r) p.reads;
    if traced_pass then begin
      symbols0 := !symbols0 + s0;
      symbols := !symbols + Symbol.count ();
      Option.iter Trace.write span_log
    end;
    if k = 0 then first_pass_rss := Report.peak_rss_mb ();
    let acc = (traced_pass, p, if traced_pass then Some (Trace.self_times ()) else None) :: acc in
    if k + 1 < npasses then passes (k + 1) acc else List.rev acc
  in
  let all_passes = passes 0 [] in
  Trace.arm false;
  Option.iter close_out span_log;
  let attempted = Stats.sum_int (List.map (fun (_, p, _) -> List.length p.samples) all_passes) in
  let checked = List.map (fun (_, p, _) -> check_pass pins p) all_passes in
  let failed, problems =
    match pins with
    | None -> (attempted, [ "no pinned digests: " ^ pinned_file ^ " is missing" ])
    | Some _ -> (Stats.sum_int (List.map fst checked), List.concat_map snd checked)
  in
  let samples =
    List.mapi
      (fun i _ -> List.length (List.filter (fun (_, p, _) -> List.exists (fun s -> s.cell = i) p.samples) all_passes))
      cells
  in
  let info =
    [
      ("dataset", dataset);
      ("scale", Printf.sprintf "%g" scale);
      ("instance", "fixed (generator seed 42); the seed orders each round's cells");
      ("atoms", string_of_int (Abox.num_atoms abox));
      ("individuals", string_of_int (Abox.num_individuals abox));
      ("cells", string_of_int (List.length cells));
      ("rounds", string_of_int (List.length all_passes));
      ("samples_per_cell", Printf.sprintf "%d-%d" (List.fold_left min max_int samples) (List.fold_left max 0 samples));
    ]
  in
  let plain = List.filter_map (fun (t, p, _) -> if t then None else Some p) all_passes in
  let traced_passes = List.filter_map (fun (t, p, s) -> if t then Some (p, Option.get s) else None) all_passes in
  let metrics, problems, host =
    if not traced then begin
      (* per cell, its fastest sample; the figures are over cells *)
      let y = Option.get yard in
      let per_cell time =
        List.mapi
          (fun i _ ->
            Stats.minimum
              (List.concat_map
                 (fun p -> List.filter_map (fun s -> if s.cell = i then Some (time s) else None) p.samples)
                 plain))
          cells
      in
      let at_reference = per_cell (fun s -> Yardstick.scale y ~start:s.start s.seconds) in
      let raw = per_cell (fun s -> s.seconds) in
      ( [
          Report.metric "setup_s" "s" (Stats.median (List.map fst all));
          Report.metric "latency_gmean_ms" "ms" (1000. *. Stats.gmean at_reference);
          Report.metric "peak_rss_mb" "MB" !first_pass_rss;
        ],
        problems,
        [
          ("yardstick_ms", Printf.sprintf "%.3f" (1000. *. Yardstick.median y));
          ("yardstick_samples", string_of_int (List.length y.Yardstick.samples));
          ("raw_latency_gmean_ms", Printf.sprintf "%.4f" (1000. *. Stats.gmean raw));
        ] )
    end
    else begin
      let k = float_of_int (List.length traced_passes) in
      let per_pass x = x /. k in
      let self name = per_pass (Stats.sum (List.map (fun (_, s) -> Trace.self_time s name) traced_passes)) in
      let wall = per_pass (Stats.sum (List.map (fun (p, _) -> p.wall) traced_passes)) in
      let layer_self = self "parse" +. self "rewrite" +. self "eval" +. self "encode" in
      let unattributed = (wall -. layer_self) /. wall in
      let reads = float_of_int c.tuples_read in
      let plain_wall = Stats.median (List.map (fun p -> p.wall) plain) in
      let traced_wall = Stats.median (List.map (fun (p, _) -> p.wall) traced_passes) in
      let zero name unit_ = Report.metric name unit_ 0. in
      ( [
          Report.metric "eval.s" "s" (self "eval");
          Report.metric "eval.tuples_read" "count" (per_pass reads);
          Report.metric "eval.generated_tuples" "count" (per_pass (float_of_int c.generated));
          Report.metric "eval.ns_per_read" "ns" (1e9 *. self "eval" /. per_pass reads);
          Report.metric "eval.alloc_words_per_read" "words" (c.minor_words /. reads);
          Report.metric "eval.major_gcs" "count" (per_pass (float_of_int c.major_gcs));
          Report.metric "eval.reads_per_answer" "reads/answer" (reads /. float_of_int (max 1 c.answers));
          zero "eval.plan_cache_hits" "count";
          zero "eval.plan_replans" "count";
          Report.metric "omq.rewrite_s" "s" (self "rewrite");
          Report.metric "omq.rewrite_share" "%" (100. *. self "rewrite" /. wall);
          Report.metric "omq.clauses" "count" (per_pass (float_of_int c.clauses));
          Report.metric "parse.query_s" "s" (self "parse");
          zero "parse.data_share" "%";
          Report.metric "encode.s" "s" (self "encode");
          Report.metric "encode.bytes" "bytes" (per_pass (float_of_int c.encoded_bytes));
          zero "serve.response_bytes" "bytes";
          zero "session.share" "%";
          zero "session.write_after_freeze_share" "%";
          zero "session.consistency_miss_ratio" "ratio";
          zero "session.wait_share" "%";
          Report.metric "abox.individuals" "count" (float_of_int (Abox.num_individuals abox));
          zero "wal.appends" "count";
          zero "wal.syncs" "count";
          zero "wal.bytes" "bytes";
          zero "wal.checkpoints" "count";
          zero "wal.bytes_per_user_byte" "ratio";
          zero "wal.checkpoint_share" "%";
          zero "serve.answer_share" "%";
          zero "serve.mutate_share" "%";
          zero "server.queue_transport_share" "%";
          zero "server.shed" "count";
          Report.metric "symbol.count_growth" "count" (per_pass (float_of_int (!symbols - !symbols0)));
          zero "gen.late_share" "%";
          zero "gen.backlog_max" "count";
          zero "gen.cpu_share" "%";
          Report.metric "trace.overhead" "%" (100. *. (traced_wall /. plain_wall -. 1.));
          Report.metric "trace.unattributed_share" "%" (100. *. unattributed);
        ],
        (problems
        @
        if unattributed <= unattributed_tolerance then []
        else
          [ Printf.sprintf "layer self times cover %.1f%% of the pass wall time (tolerance %.0f%%)"
              (100. *. (1. -. unattributed)) (100. *. unattributed_tolerance) ]),
        [] )
    end
  in
  { Report.attempted; failed; checks_failed = problems; metrics; info = info @ host }

(* The lines of [paper_tables.digests]: one pass, Tw/Lin/Log agreeing on
   every cell. *)
let print_digests () =
  let tbox = Parse.ontology_of_string Dataset.ontology_text in
  let p = run_pass tbox (instance tbox) in
  match check_pass None p with
  | 0, [] ->
    Printf.printf
      "# seq len md5 of the sorted answer lines under the generated names (2.ttl, scale %g, generator seed %d)\n"
      scale Dataset.default_seed;
    List.iter
      (fun ((s, l), dg) -> Printf.printf "%d %d %s\n" s l dg)
      (List.sort_uniq compare p.digests)
  | _, problems ->
    List.iter prerr_endline problems;
    exit 1
