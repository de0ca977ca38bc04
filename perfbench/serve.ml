(* serve-write: writes and answers through the serve loop, on the
   generated 4.ttl instance with a write-ahead log
   ([--durability interval:100 --checkpoint-every 500]).  The request mix
   of {!Gen}: 80% ASSERT of a fresh [W] constant or RETRACT of the oldest
   live one, 20% ANSWER [wsq = q(x,y) <- W(x), W(y)].

   The end-to-end run ([run_local]) sends the seeded sequence back to back
   from one in-process caller through [Serve.handle_line], the function
   [obda serve] runs for every line it reads, into a session holding the
   data with the WAL attached.

   The traced run starts [obda serve --connections 2] on a checkpoint of
   the same data ([Wal.checkpoint] into a fresh [--data-dir]), sends it an
   open-loop schedule of the mix over its socket with the server's METRICS
   read once before and once after the window, and replays the same
   request sequence in-process on one thread, through the functions
   [Serve.exec] calls, with a span around each call. *)

module Parse = Obda_parse.Parse
module Session = Obda_service.Session
module Serve = Obda_service.Serve
module Wal = Obda_service.Wal
module Protocol = Obda_service.Protocol
module Prepared = Obda_service.Prepared
module Abox = Obda_data.Abox
module Symbol = Obda_syntax.Symbol
module Ndl = Obda_ndl.Ndl
module Obs = Obda_obs.Obs

let dataset = "4.ttl"
let scale = 0.05
let query_name = "wsq"
let query_text = "q(x,y) <- W(x), W(y)"
(* The traced run's offered requests per second: under a third of the
   96 req/s closed-loop capacity measured over the socket on the 2-core
   host, so the server's queue stays short. *)
let rate = 30.
let write_share = 0.8
let max_live = 4  (* most W facts live at once *)
let durability = "interval:100"
let checkpoint_every = 500
let server_flags =
  Printf.sprintf "--connections 2 --durability %s --checkpoint-every %d" durability checkpoint_every

let socket = "srv.sock"
let data_dir = "data"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The server process *)

let live_servers : int list ref = ref []

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live_servers := List.filter (( <> ) pid) !live_servers

let () = at_exit (fun () -> List.iter stop_server !live_servers)

let start_server ~obda =
  let log = Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ obda; "serve"; "--data-dir"; data_dir; "--socket"; socket ]
    @ String.split_on_char ' ' server_flags
  in
  let pid = Unix.create_process obda (Array.of_list args) null log log in
  Unix.close log;
  Unix.close null;
  live_servers := pid :: !live_servers;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec connect () =
    match Conn.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "obda serve exited during start-up (see server.log)");
      if Unix.gettimeofday () > deadline then failwith "obda serve did not start";
      Unix.sleepf 0.005;
      connect ()
  in
  (pid, connect ())

let expect_ok what (status, lines) =
  if not (String.starts_with ~prefix:"OK" status) then
    failwith (Printf.sprintf "%s: %s" what status);
  (status, lines)

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup = {
  seconds : float;
  pid : int;
  abox : Abox.t;
  tbox : Obda_ontology.Tbox.t;
}

let setup ~obda ~seed =
  let t0 = Unix.gettimeofday () in
  let tbox = Parse.ontology_of_string Dataset.ontology_text in
  let abox = Dataset.generate ~seed ~scale tbox dataset in
  remove_tree data_dir;
  (try Sys.remove socket with Sys_error _ -> ());
  let wal, _ = Wal.open_ ~policy:Wal.Never data_dir in
  ignore (Wal.checkpoint wal ~tbox:(Some tbox) ~abox ~prepared:[]);
  Wal.close wal;
  let pid, c = start_server ~obda in
  ignore (expect_ok "PREPARE" (Conn.request c (Printf.sprintf "PREPARE %s %s" query_name query_text)));
  ignore (expect_ok "ANSWER" (Conn.request c ("ANSWER " ^ query_name)));
  ignore (Conn.request c "QUIT");
  Conn.close c;
  { seconds = Unix.gettimeofday () -. t0; pid; abox; tbox }

(* ------------------------------------------------------------------ *)
(* METRICS exposition: scalar samples, and histogram sums *)

let metrics c =
  let _, lines = expect_ok "METRICS" (Conn.request c "METRICS") in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
          match float_of_string_opt v with
          | Some v -> Hashtbl.replace tbl name v
          | None -> ())
        | _ -> ())
    lines;
  tbl

let delta before after name =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
  get after -. get before

(* ------------------------------------------------------------------ *)
(* Correctness of the window's responses *)

let is_square n =
  n >= 0
  &&
  let r = int_of_float (sqrt (float_of_int n) +. 0.5) in
  r * r = n

type verdict = {
  ok : bool array;
  added : int;
  removed : int;
  problems : string list;
}

let check requests status =
  let n = Array.length requests in
  let ok = Array.make n false and added = ref 0 and removed = ref 0 in
  let problems = ref [] in
  Array.iteri
    (fun i (req : Gen.request) ->
      let st = status.(i) in
      let fine =
        match req.Gen.kind with
        | Gen.Answer -> (
          match Conn.int_field st "answers=" with
          | Some k when String.starts_with ~prefix:"OK answers=" st -> is_square k
          | _ -> false)
        | Gen.Assert _ -> (
          match Conn.int_field st "added=" with
          | Some k when String.starts_with ~prefix:"OK asserted" st ->
            added := !added + k;
            k = 1
          | _ -> false)
        | Gen.Retract _ -> (
          match Conn.int_field st "removed=" with
          | Some k when String.starts_with ~prefix:"OK retracted" st ->
            removed := !removed + k;
            k = 1
          | _ -> false)
      in
      ok.(i) <- fine;
      if (not fine) && List.length !problems < 5 then
        problems :=
          Printf.sprintf "%s -> %s" req.Gen.line (if st = "" then "(no response)" else st)
          :: !problems)
    requests;
  { ok; added = !added; removed = !removed; problems = List.rev !problems }

(* ------------------------------------------------------------------ *)
(* In-process replay of the request sequence *)

type replay = {
  loop_s : float;  (** wall time of the request loop *)
  layers : (string, float) Hashtbl.t;  (** self time per span name *)
  prepare_parse_s : float;
  prepare_rewrite_s : float;
  clauses : int;
  tuples_read : int;
  generated : int;
  answers : int;
  minor_words : float;
  major_gcs : int;
  plan_cache_hits : int;
  plan_replans : int;
  encoded_bytes : int;
  consistency_checks : int;
  consistency_misses : int;
  write_after_freeze_s : float;
  writes_s : float;
  symbol_growth : int;
  individuals : int;
  mismatches : int;
}

(* Replay [requests] in order on this thread against a fresh in-process
   session over the same data, through the calls [Serve.exec] makes. *)
let replay ~traced (s : setup) (requests : Gen.request array) =
  Trace.arm traced;
  let session = Session.create () in
  Session.load_ontology session s.tbox;
  Session.load_data session (Abox.copy s.abox);
  let prepared =
    let cq = Trace.span "parse" (fun () -> Parse.query_of_string query_text) in
    fst (Trace.span "rewrite" (fun () -> Session.prepare session ~name:query_name cq))
  in
  let dir = "replay" in
  remove_tree dir;
  let policy = Result.get_ok (Wal.sync_policy_of_string durability) in
  let wal, _ = Wal.open_ ~policy ~checkpoint_every dir in
  Serve.attach_wal session wal;
  let tuples_read = ref 0 and generated = ref 0 and answers = ref 0 in
  let minor_words = ref 0. and major_gcs = ref 0 in
  let hits = ref 0 and replans = ref 0 and bytes = ref 0 in
  let checks = ref 0 and misses = ref 0 and mismatches = ref 0 in
  let frozen = ref false and waf = ref 0. and writes = ref 0. in
  let buf = Buffer.create 65536 in
  let symbols0 = Symbol.count () in
  let write kind facts =
    let t0 = Unix.gettimeofday () in
    let changed, _ =
      Trace.span kind (fun () ->
          if kind = "session.assert" then Session.assert_facts session facts
          else Session.retract_facts session facts)
    in
    let d = Unix.gettimeofday () -. t0 in
    writes := !writes +. d;
    if !frozen then waf := !waf +. d;
    frozen := false;
    if changed <> 1 then incr mismatches;
    if Wal.due_checkpoint wal then
      Trace.span "wal.checkpoint" (fun () -> ignore (Serve.checkpoint_now session wal))
  in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i (r : Gen.request) ->
      Trace.set_request i;
      Trace.span "request" (fun () ->
          match Trace.span "protocol" (fun () -> Protocol.parse r.Gen.line) with
          | Ok (Some (Protocol.Answer name)) when name = query_name ->
            let snap = Trace.span "session.freeze" (fun () -> Session.freeze session) in
            frozen := true;
            incr checks;
            if Session.consistency_cached session = None then incr misses;
            ignore (Trace.span "session.consistency" (fun () -> Session.consistent_at session snap));
            let g0 = Gc.quick_stat () in
            let result, collector =
              Trace.span "eval" (fun () ->
                  Obs.collecting (fun () -> Session.answer_at session prepared snap))
            in
            let g1 = Gc.quick_stat () in
            minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
            major_gcs := !major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
            tuples_read := !tuples_read + Obs.Collector.counter collector "eval.tuples_read";
            generated :=
              !generated
              + Option.value ~default:0 (Obs.Collector.gauge_int collector "eval.generated_tuples");
            hits := !hits + Obs.Collector.counter collector "eval.plan.cache_hits";
            replans := !replans + Obs.Collector.counter collector "eval.plan.replans";
            answers := !answers + List.length result;
            Trace.span "encode" (fun () ->
                Buffer.clear buf;
                List.iter
                  (fun tuple ->
                    Buffer.add_string buf (String.concat "," (List.map Symbol.name tuple));
                    Buffer.add_char buf '\n')
                  result;
                bytes := !bytes + Buffer.length buf);
            if not (is_square (List.length result)) then incr mismatches
          | Ok (Some (Protocol.Assert_facts text)) ->
            write "session.assert"
              (Trace.span "parse.data" (fun () -> Abox.to_facts (Parse.data_of_string text)))
          | Ok (Some (Protocol.Retract_facts text)) ->
            write "session.retract"
              (Trace.span "parse.data" (fun () -> Abox.to_facts (Parse.data_of_string text)))
          | _ -> incr mismatches))
    requests;
  let loop_s = Unix.gettimeofday () -. t0 in
  let layers = Trace.self_times () in
  if traced then begin
    let oc = open_out "spans.jsonl" in
    Trace.write oc;
    close_out oc
  end;
  let individuals = Abox.num_individuals (Session.abox session) in
  Serve.detach_wal session;
  Wal.close wal;
  Session.close session;
  Trace.arm false;
  {
    loop_s;
    layers;
    prepare_parse_s = Trace.self_time layers "parse";
    prepare_rewrite_s = Trace.self_time layers "rewrite";
    clauses = Ndl.num_clauses (Prepared.rewriting prepared);
    tuples_read = !tuples_read;
    generated = !generated;
    answers = !answers;
    minor_words = !minor_words;
    major_gcs = !major_gcs;
    plan_cache_hits = !hits;
    plan_replans = !replans;
    encoded_bytes = !bytes;
    consistency_checks = !checks;
    consistency_misses = !misses;
    write_after_freeze_s = !waf;
    writes_s = !writes;
    symbol_growth = Symbol.count () - symbols0;
    individuals;
    mismatches = !mismatches;
  }

(* ------------------------------------------------------------------ *)
(* The end-to-end run: in-process, back to back *)

(* Set-ups per run; [setup_s] is their median.  With five, the medians of
   one ten-run set spread 0.23. *)
let setups = 9

(* A failed request counts as missing every latency limit: its infinite
   latency is reported as 10^9 ms. *)
let ms v = if Float.is_finite v then v *. 1000. else 1e9

(* Requests per second of run length: 11,000 requests at 55 s, about
   37 s on the 2-core host the benchmark was defined on, so that a slower
   minute still ends well inside the run's time limit. *)
let requests_per_s = 200.
let local_dir = "local"

type local = {
  local_s : float;  (** the set-up's time *)
  session : Session.t;
  wal : Wal.t;
  atoms : int;
  individuals : int;
}

let line_ok what (lines, _) =
  match lines with
  | status :: _ when String.starts_with ~prefix:"OK" status -> lines
  | _ -> failwith (Printf.sprintf "%s: %s" what (String.concat " | " lines))

(* Generate the data, load it into a fresh session with the WAL of a
   fresh directory attached and checkpointed, PREPARE [wsq] and answer it
   once: what [obda serve --data-dir] holds after its start-up. *)
let local_setup ~seed =
  let t0 = Unix.gettimeofday () in
  let tbox = Parse.ontology_of_string Dataset.ontology_text in
  let abox = Dataset.generate ~seed ~scale tbox dataset in
  remove_tree local_dir;
  let session = Session.create () in
  Session.load_ontology session tbox;
  Session.load_data session abox;
  let policy = Result.get_ok (Wal.sync_policy_of_string durability) in
  let wal, _ = Wal.open_ ~policy ~checkpoint_every local_dir in
  Serve.attach_wal session wal;
  ignore (Serve.checkpoint_now session wal);
  ignore (line_ok "PREPARE" (Serve.handle_line session (Printf.sprintf "PREPARE %s %s" query_name query_text)));
  ignore (line_ok "ANSWER" (Serve.handle_line session ("ANSWER " ^ query_name)));
  {
    local_s = Unix.gettimeofday () -. t0;
    session;
    wal;
    atoms = Abox.num_atoms abox;
    individuals = Abox.num_individuals abox;
  }

let local_close l =
  Serve.detach_wal l.session;
  Wal.close l.wal;
  Session.close l.session

let stats_row l key =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (line_ok "STATS" (Serve.handle_line l.session "STATS"))

(* One caller sends the seeded sequence back to back through
   [Serve.handle_line], the function [obda serve] runs for every line it
   reads, and times each call at reference speed (see {!Yardstick}),
   with a yardstick sample between requests at most every half second.
   Over the socket the same mix read spreads of 0.21–0.50 between runs of
   one commit, and a busy neighbour on the other core tripled its median
   ANSWER: an open loop across two processes on two shared cores times
   the scheduler as much as the program. *)
let run_local ~seed ~seconds =
  let all =
    List.init setups (fun k ->
        let l = local_setup ~seed in
        if k < setups - 1 then local_close l;
        l)
  in
  let l = List.nth all (setups - 1) in
  let n = int_of_float (requests_per_s *. seconds) in
  let requests = Gen.sequence ~seed ~n ~write_share ~max_live ~query:query_name in
  let status = Array.make n "" and start = Array.make n 0. and latency = Array.make n 0. in
  let y = Yardstick.create () in
  Array.iteri
    (fun i (r : Gen.request) ->
      Yardstick.maybe_sample y;
      let t0 = Unix.gettimeofday () in
      let lines, _ = Serve.handle_line l.session r.Gen.line in
      latency.(i) <- Unix.gettimeofday () -. t0;
      start.(i) <- t0;
      status.(i) <- (match lines with st :: _ -> st | [] -> ""))
    requests;
  let final_atoms = stats_row l "data.atoms" in
  let rss = Report.peak_rss_mb () in
  let checkpoints = Option.value ~default:0 (stats_row l "server.wal.checkpoints") in
  local_close l;
  let v = check requests status in
  let failed = Array.fold_left (fun k ok -> if ok then k else k + 1) 0 v.ok in
  let problems =
    v.problems
    @
    match final_atoms with
    | Some a when a = l.atoms + v.added - v.removed -> []
    | a ->
      [ Printf.sprintf "final data.atoms %s <> seed %d + asserted %d - retracted %d"
          (match a with Some a -> string_of_int a | None -> "missing") l.atoms v.added v.removed ]
  in
  let latencies time = List.init n (fun i -> if v.ok.(i) then time i else infinity) in
  let at_reference = latencies (fun i -> Yardstick.scale y ~start:start.(i) latency.(i))
  and raw = latencies (fun i -> latency.(i)) in
  {
    Report.attempted = n;
    failed;
    checks_failed = problems;
    metrics =
      [
        Report.metric "setup_s" "s" (Stats.median (List.map (fun l -> l.local_s) all));
        Report.metric "latency_gmean_ms" "ms" (ms (Stats.gmean at_reference));
        Report.metric "peak_rss_mb" "MB" rss;
      ];
    info =
      [
        ("dataset", dataset);
        ("scale", Printf.sprintf "%g" scale);
        ("instance", "drawn from the seed");
        ("atoms", string_of_int l.atoms);
        ("individuals", string_of_int l.individuals);
        ("prepared_queries", "1");
        ("requests", string_of_int n);
        ("loop", "in-process, back to back, one caller");
        ("durability", durability);
        ("checkpoint_every", string_of_int checkpoint_every);
        ("checkpoints", string_of_int checkpoints);
        ("yardstick_ms", Printf.sprintf "%.3f" (1000. *. Yardstick.median y));
        ("yardstick_samples", string_of_int (List.length y.Yardstick.samples));
        ("raw_latency_gmean_ms", Printf.sprintf "%.4f" (ms (Stats.gmean raw)));
        ("raw_latency_p50_ms", Printf.sprintf "%.4f" (ms (Stats.median raw)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: obda serve over its socket, and an in-process replay *)

(* A run's validity limits for the generator itself: it must send on
   time and its backlog must not grow over the window, or the delay it
   adds would read as server latency. *)
let max_late_p99_s = 0.05
let max_backlog_growth = 2.

let run_traced ~obda ~seed ~seconds =
  let s = setup ~obda ~seed in
  let requests =
    Gen.schedule ~seed ~rate ~seconds ~write_share ~max_live ~query:query_name
  in
  let conns = [| Conn.connect socket; Conn.connect socket |] in
  let before = metrics conns.(0) in
  let r = Gen.run conns requests in
  let after = metrics conns.(0) in
  Array.iter
    (fun c ->
      (try ignore (Conn.request c "QUIT") with _ -> ());
      Conn.close c)
    conns;
  stop_server s.pid;
  let v = check requests r.Gen.status in
  let n = Array.length requests in
  let failed = Array.fold_left (fun k ok -> if ok then k else k + 1) 0 v.ok in
  let seed_atoms = Abox.num_atoms s.abox in
  let final_atoms = int_of_float (Hashtbl.find after "obda_data_atoms") in
  let latency_of pred =
    List.filter_map
      (fun i -> if pred requests.(i).Gen.kind then Some (if v.ok.(i) then r.Gen.latency.(i) else infinity) else None)
      (List.init n Fun.id)
  in
  let is_answer = function Gen.Answer -> true | _ -> false in
  let answers = latency_of is_answer and all_requests = latency_of (fun _ -> true) in
  let late_p99 = Stats.percentile (Array.to_list r.Gen.late) 0.99 in
  let problems =
    v.problems
    @ (if final_atoms = seed_atoms + v.added - v.removed then []
       else
         [ Printf.sprintf "final data.atoms %d <> seed %d + asserted %d - retracted %d" final_atoms
             seed_atoms v.added v.removed ])
    @ (if late_p99 <= max_late_p99_s then []
       else [ Printf.sprintf "invalid run: generator p99 lateness %.1f ms" (late_p99 *. 1000.) ])
    @
    if r.Gen.backlog_growth <= max_backlog_growth then []
    else [ Printf.sprintf "invalid run: backlog grew by %.1f requests" r.Gen.backlog_growth ]
  in
  let answer_total = Stats.sum answers in
  let info =
    [
      ("dataset", dataset);
      ("scale", Printf.sprintf "%g" scale);
      ("instance", "drawn from the seed");
      ("atoms", string_of_int seed_atoms);
      ("individuals", string_of_int (Abox.num_individuals s.abox));
      ("prepared_queries", "1");
      ("offered_rate_per_s", Printf.sprintf "%g" rate);
      ("requests", string_of_int n);
      ("server_flags", server_flags);
    ]
  in
  let layer, replay_problems =
    (* plain, traced, plain: the traced replay is compared with the mean
       of the plain ones around it, so warm-up does not read as
       overhead; the first replay is the one that interns the fresh
       constants *)
    let plain = replay ~traced:false s requests in
    let rp = replay ~traced:true s requests in
    let plain2 = replay ~traced:false s requests in
    let self = Trace.self_time rp.layers in
    let loop = rp.loop_s in
    let share x = 100. *. x /. loop in
    let d = delta before after in
    let client_answer = answer_total and client_all = Stats.sum all_requests in
    let client_mutate = client_all -. client_answer in
    let server_answer = d "obda_serve_answer_latency_sum"
    and server_mutate = d "obda_serve_mutate_latency_sum" in
    let layer_names =
      [ "protocol"; "parse.data"; "session.freeze"; "session.consistency"; "eval"; "encode";
        "session.assert"; "session.retract"; "wal.checkpoint" ]
    in
    let layer_self = Stats.sum (List.map self layer_names) in
    let user_bytes =
      Array.fold_left
        (fun k (q : Gen.request) -> match q.Gen.kind with Gen.Answer -> k | _ -> k + String.length q.Gen.line + 1)
        0 requests
    in
    let late_sends =
      Array.fold_left (fun k l -> if l > 0.001 then k + 1 else k) 0 r.Gen.late
    in
    ( [
      Report.metric "eval.s" "s" (self "eval");
      Report.metric "eval.tuples_read" "count" (float_of_int rp.tuples_read);
      Report.metric "eval.generated_tuples" "count" (float_of_int rp.generated);
      Report.metric "eval.ns_per_read" "ns" (1e9 *. self "eval" /. float_of_int (max 1 rp.tuples_read));
      Report.metric "eval.alloc_words_per_read" "words" (rp.minor_words /. float_of_int (max 1 rp.tuples_read));
      Report.metric "eval.major_gcs" "count" (float_of_int rp.major_gcs);
      Report.metric "eval.reads_per_answer" "reads/answer" (float_of_int rp.tuples_read /. float_of_int (max 1 rp.answers));
      Report.metric "eval.plan_cache_hits" "count" (float_of_int rp.plan_cache_hits);
      Report.metric "eval.plan_replans" "count" (float_of_int rp.plan_replans);
      Report.metric "omq.rewrite_s" "s" rp.prepare_rewrite_s;
      Report.metric "omq.rewrite_share" "%" (100. *. rp.prepare_rewrite_s /. (loop +. rp.prepare_rewrite_s));
      Report.metric "omq.clauses" "count" (float_of_int rp.clauses);
      Report.metric "parse.query_s" "s" rp.prepare_parse_s;
      Report.metric "parse.data_share" "%" (share (self "protocol" +. self "parse.data"));
      Report.metric "encode.s" "s" (self "encode");
      Report.metric "encode.bytes" "bytes" (float_of_int rp.encoded_bytes);
      Report.metric "serve.response_bytes" "bytes" (d "obda_serve_response_bytes_sum");
      Report.metric "session.share" "%"
        (share (self "session.freeze" +. self "session.consistency" +. self "session.assert" +. self "session.retract"));
      Report.metric "session.write_after_freeze_share" "%" (if rp.writes_s > 0. then 100. *. rp.write_after_freeze_s /. rp.writes_s else 0.);
      Report.metric "session.consistency_miss_ratio" "ratio"
        (float_of_int rp.consistency_misses /. float_of_int (max 1 rp.consistency_checks));
      Report.metric "session.wait_share" "%" (100. *. Float.max 0. (server_answer +. server_mutate -. layer_self) /. client_all);
      Report.metric "abox.individuals" "count" (float_of_int rp.individuals);
      Report.metric "wal.appends" "count" (d "obda_server_wal_appended");
      Report.metric "wal.syncs" "count" (d "obda_server_wal_syncs");
      Report.metric "wal.bytes" "bytes" (d "obda_server_wal_bytes");
      Report.metric "wal.checkpoints" "count" (d "obda_server_wal_checkpoints");
      Report.metric "wal.bytes_per_user_byte" "ratio" (d "obda_server_wal_bytes" /. float_of_int (max 1 user_bytes));
      Report.metric "wal.checkpoint_share" "%" (share (self "wal.checkpoint"));
      Report.metric "serve.answer_share" "%" (100. *. server_answer /. client_answer);
      Report.metric "serve.mutate_share" "%" (if client_mutate > 0. then 100. *. server_mutate /. client_mutate else 0.);
      Report.metric "server.queue_transport_share" "%" (100. *. Float.max 0. (client_all -. server_answer -. server_mutate) /. client_all);
      Report.metric "server.shed" "count" (d "obda_server_requests_shed");
      Report.metric "symbol.count_growth" "count" (float_of_int plain.symbol_growth);
      Report.metric "gen.late_share" "%" (100. *. float_of_int late_sends /. float_of_int (max 1 n));
      Report.metric "gen.backlog_max" "count" (float_of_int r.Gen.backlog_max);
      Report.metric "gen.cpu_share" "%" (100. *. r.Gen.cpu_s /. r.Gen.window_s);
      Report.metric "trace.overhead" "%" (100. *. ((2. *. rp.loop_s /. (plain.loop_s +. plain2.loop_s)) -. 1.));
      Report.metric "trace.unattributed_share" "%" (share (loop -. layer_self));
    ],
      List.filter_map
        (fun (rp : replay) ->
          if rp.mismatches = 0 then None
          else Some (Printf.sprintf "replay: %d responses differ from the served ones" rp.mismatches))
        [ plain; rp; plain2 ] )
  in
  {
    Report.attempted = n;
    failed;
    checks_failed = problems @ replay_problems;
    metrics = layer;
    info;
  }

let run ~obda ~seed ~seconds ~traced =
  if traced then run_traced ~obda ~seed ~seconds else run_local ~seed ~seconds
