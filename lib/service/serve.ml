(* Request execution and the serve loop. *)

module Omq = Obda_rewriting.Omq
module Tbox = Obda_ontology.Tbox
module Cq = Obda_cq.Cq
module Abox = Obda_data.Abox
module Ndl = Obda_ndl.Ndl
module Parse = Obda_parse.Parse
module Symbol = Obda_syntax.Symbol
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs
module Histogram = Obda_obs.Histogram
module Exposition = Obda_obs.Exposition
module Json = Obda_obs.Json

(* ------------------------------------------------------------------ *)
(* Request-scoped telemetry.

   Every parsed request gets a monotonically increasing id (process-wide,
   so ids from concurrent connections interleave but never collide), is
   timed into a per-verb latency histogram, and — when the access log is
   enabled — leaves one JSON line behind.  Histograms live in the
   process-wide registry, so a METRICS render sees every verb's
   distribution no matter which connection served it. *)

let next_request_id = Atomic.make 1

let h_answer = Histogram.registered ~scale:1e9 "serve.answer.latency"
let h_batch = Histogram.registered ~scale:1e9 "serve.batch.latency"
let h_mutate = Histogram.registered ~scale:1e9 "serve.mutate.latency"
let h_answer_count = Histogram.registered ~scale:1. "serve.answer.count"
let h_bytes_out = Histogram.registered ~scale:1. "serve.response.bytes"

let latency_histogram = function
  | "ANSWER" -> Some h_answer
  | "BATCH" -> Some h_batch
  | "ASSERT" | "RETRACT" -> Some h_mutate
  | _ -> None

let h_batch_query = Histogram.registered ~scale:1e9 "serve.batch.query.latency"

type access_log = {
  write : string -> unit;  (** one complete JSON line, no trailing newline *)
  slow_ms : float option;
}

let access_log : access_log option ref = ref None
let access_log_mutex = Mutex.create ()
let access_log_errors = Atomic.make 0

let set_access_log ?slow_ms write = access_log := Some { write; slow_ms }
let clear_access_log () = access_log := None
let access_log_error_count () = Atomic.get access_log_errors

(* ------------------------------------------------------------------ *)
(* Durability: the session owns its WAL (appends happen under its lock);
   the serve loop adds the CHECKPOINT verb and the --checkpoint-every
   trigger on top. *)

let attach_wal = Session.attach_wal
let detach_wal = Session.detach_wal
let checkpoint_now = Session.checkpoint

(* The --checkpoint-every trigger, after a mutation was acknowledged.  A
   failed automatic checkpoint must not fail the already-applied request:
   the WAL still holds every record, so durability is intact — count it,
   warn, and let the next trigger retry. *)
let auto_checkpoint session =
  match Session.wal session with
  | Some wal when Wal.due_checkpoint wal -> (
    try ignore (Session.checkpoint session wal)
    with e ->
      Obs.incr "wal.checkpoint.errors";
      Printf.eprintf "obda: automatic checkpoint failed: %s\n%!"
        (match e with
        | Error.Obda_error err -> Error.to_string err
        | e -> Printexc.to_string e))
  | _ -> ()

let origin_string = function `Hit -> "hit" | `Miss -> "miss"

let tuple_string tuple =
  String.concat "," (List.map Symbol.name tuple)

let exec ?budget session (req : Protocol.request) =
  match req with
  | Protocol.Load_ontology file ->
    let tbox = Parse.ontology_of_file file in
    Session.load_ontology session tbox;
    [
      Format.asprintf "OK ontology axioms=%d depth=%a"
        (List.length (Tbox.axioms tbox))
        Tbox.pp_depth (Tbox.depth tbox);
    ]
  | Protocol.Load_data file ->
    let abox = Parse.data_of_file file in
    Session.load_data session abox;
    [
      Printf.sprintf "OK data atoms=%d individuals=%d"
        (Abox.num_atoms abox) (Abox.num_individuals abox);
    ]
  | Protocol.Prepare { name; algorithm; cq } ->
    let cq = Parse.query_of_string cq in
    let prepared, origin = Session.prepare ?budget session ~name ?algorithm cq in
    [
      Printf.sprintf "OK prepared name=%s algorithm=%s cache=%s clauses=%d digest=%s"
        name
        (Omq.algorithm_name (Prepared.algorithm prepared))
        (origin_string origin)
        (Ndl.num_clauses (Prepared.rewriting prepared))
        (Prepared.digest prepared);
    ]
  | Protocol.Answer name ->
    let prepared =
      match Session.find_prepared session name with
      | Some p -> p
      | None -> Error.internal "no prepared query named %S" name
    in
    (* snapshot isolation: evaluate against a frozen revision, so
       concurrent writers on other connections never tear this answer *)
    let snap = Session.freeze session in
    let answers = Session.answer_at ?budget session prepared snap in
    if Prepared.arity prepared = 0 then
      [ Printf.sprintf "OK boolean=%b" (answers <> []) ]
    else
      Printf.sprintf "OK answers=%d" (List.length answers)
      :: List.map tuple_string answers
  | Protocol.Batch names ->
    let lookup name =
      match Session.find_prepared session name with
      | Some p -> (name, p)
      | None -> Error.internal "no prepared query named %S" name
    in
    (* resolve every name before evaluating anything, so an unknown name
       fails the whole request without spending evaluation budget *)
    let work = List.map lookup names in
    (* one frozen revision for the whole batch: every query of the request
       sees the same data, whatever concurrent writers do *)
    let snap = Session.freeze session in
    let results =
      List.map
        (fun (_, p) ->
          (* one sub-allowance per query; the wall deadline stays shared *)
          let budget = Option.map Budget.sub budget in
          let t0 = Unix.gettimeofday () in
          let answers = Session.answer_at ?budget session p snap in
          Histogram.record h_batch_query (Unix.gettimeofday () -. t0);
          answers)
        work
    in
    Printf.sprintf "OK batch=%d" (List.length work)
    :: List.concat
         (List.map2
            (fun (name, p) answers ->
              if Prepared.arity p = 0 then
                [ Printf.sprintf "OK name=%s boolean=%b" name (answers <> []) ]
              else
                Printf.sprintf "OK name=%s answers=%d" name
                  (List.length answers)
                :: List.map tuple_string answers)
            work results)
  | Protocol.Assert_facts text ->
    (* parse outside the session lock; apply atomically, so a concurrent
       freeze sees all of this request's facts or none of them *)
    let facts = Parse.facts_of_string text in
    (* the post-apply atom count comes from inside the mutation's lock
       scope, so it reports exactly this request's effect even with
       concurrent writers on other connections *)
    let added, atoms = Session.assert_facts session facts in
    [ Printf.sprintf "OK asserted added=%d atoms=%d" added atoms ]
  | Protocol.Retract_facts text ->
    let facts = Parse.facts_of_string text in
    let removed, atoms = Session.retract_facts session facts in
    [ Printf.sprintf "OK retracted removed=%d atoms=%d" removed atoms ]
  | Protocol.Stats ->
    let stats = Session.stats session in
    Printf.sprintf "OK stats=%d" (List.length stats)
    :: List.map (fun (k, v) -> Printf.sprintf "%s %s" k v) stats
  | Protocol.Metrics ->
    (* stats rows (session + server hook) as counters/gauges, plus every
       registered histogram; the render is guarded by [obs.export] *)
    let text = Exposition.render (Session.stats session) in
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
    in
    Printf.sprintf "OK metrics=%d" (List.length lines) :: lines
  | Protocol.Ping ->
    [
      Printf.sprintf "OK pong rev=%d uptime=%.1f"
        (Abox.revision (Session.abox session))
        (Session.uptime session);
    ]
  | Protocol.Checkpoint -> (
    match Session.wal session with
    | None ->
      Error.internal
        "no durability configured (start obda serve with --data-dir)"
    | Some wal ->
      let seq = Session.checkpoint session wal in
      [ Printf.sprintf "OK checkpoint seq=%d" seq ])
  | Protocol.Quit -> [ "OK bye" ]

let protocol_error msg line =
  Error.Parse_error
    {
      loc = { file = None; line = 0; column = None };
      msg;
      source_line = Some line;
    }

(* Substring scan over a (short) response status line, for the cache
   hit/miss field of the access log. *)
let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

let cache_origin = function
  | first :: _ when contains_sub first "cache=hit" -> Some "hit"
  | first :: _ when contains_sub first "cache=miss" -> Some "miss"
  | _ -> None

let span_json (s : Obs.span) =
  Json.Assoc
    [
      ("name", Json.String s.name);
      ("depth", Json.Int s.depth);
      ("duration_ms", Json.Float (s.duration *. 1000.));
      ( "outcome",
        Json.String
          (match s.outcome with
          | Obs.Completed -> "ok"
          | Obs.Failed cls -> cls) );
    ]

(* One access-log line per parsed request; a request slower than
   [slow_ms] leaves a second ["slow"] line carrying its span tree. *)
let log_request ~id ~conn ~verb ~revision ~outcome ~duration ~lines ~spans =
  match !access_log with
  | None -> ()
  | Some { write; slow_ms } ->
    let duration_ms = duration *. 1000. in
    let access =
      Json.Assoc
        ([
           ("type", Json.String "access");
           ("id", Json.Int id);
           ("conn", Json.Int conn);
           ("verb", Json.String verb);
           ("revision", Json.Int revision);
           ("outcome", Json.String outcome);
           ("duration_ms", Json.Float duration_ms);
         ]
        @
        match cache_origin lines with
        | Some origin -> [ ("cache", Json.String origin) ]
        | None -> [])
    in
    let slow =
      match slow_ms with
      | Some threshold when duration_ms >= threshold ->
        [
          Json.Assoc
            [
              ("type", Json.String "slow");
              ("id", Json.Int id);
              ("duration_ms", Json.Float duration_ms);
              ("spans", Json.List (List.map span_json spans));
            ];
        ]
      | _ -> []
    in
    (* one lock per request keeps lines whole across connection domains *)
    Mutex.lock access_log_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock access_log_mutex)
      (fun () ->
        (* a dead log destination (ENOSPC, closed pipe) must never take a
           connection — or the server — down with it: count the failure
           and disable logging to that destination for good *)
        try List.iter (fun j -> write (Json.to_string j)) (access :: slow)
        with _ ->
          Atomic.incr access_log_errors;
          Obs.incr "serve.access_log.errors";
          access_log := None)

let record_histograms ~verb ~lines =
  if Histogram.recording () then begin
    (match lines with
    | first :: tuples when verb = "ANSWER" && not (contains_sub first "boolean=")
      ->
      Histogram.record h_answer_count (float_of_int (List.length tuples))
    | _ -> ());
    let bytes =
      List.fold_left (fun n l -> n + String.length l + 1) 0 lines
    in
    Histogram.record h_bytes_out (float_of_int bytes)
  end

(* Execute one input line.  Returns the response lines and whether the
   loop should stop.  Every parsed request gets a process-unique id
   (carried as the [request] span attribute and in the access log), runs
   under a restart of the session budget (its whole step, size and
   wall-clock allowance, counted from now) and a [service.request] span,
   and is timed into the per-verb latency histograms; typed errors become
   in-protocol [ERR] lines, so a failed request — including a
   budget-exhausted one — leaves the session alive and usable.  [conn] is
   the server's connection id (0 for channel/script serving). *)
let handle_line ?(conn = 0) session line =
  match Protocol.parse line with
  | Ok None -> ([], false)
  | Error msg ->
    Session.count_request session;
    ([ "ERR " ^ Error.to_string (protocol_error msg line) ], false)
  | Ok (Some req) ->
    Session.count_request session;
    let stop = req = Protocol.Quit in
    let budget = Budget.restart (Session.budget session) in
    let id = Atomic.fetch_and_add next_request_id 1 in
    let verb = Protocol.verb req in
    let run () =
      Error.protect (fun () ->
          Obs.with_span "service.request"
            ~attrs:[ ("verb", verb); ("request", string_of_int id) ]
            (fun () ->
              Fault.hit Fault.service_request;
              exec ~budget session req))
    in
    let slow_armed =
      match !access_log with
      | Some { slow_ms = Some _; _ } -> true
      | _ -> false
    in
    let t0 = Unix.gettimeofday () in
    (* With --slow-ms armed, route this request's spans to a private
       collector so a slow request can dump its tree.  The Obs slot is
       process-wide, so under concurrent connections the attribution is
       best-effort — same caveat as the rest of the span pillar. *)
    let result, spans =
      if slow_armed then
        let result, collector = Obs.collecting run in
        (result, Obs.Collector.spans collector)
      else (run (), [])
    in
    let duration = Unix.gettimeofday () -. t0 in
    let lines, outcome =
      match result with
      | Ok lines -> (lines, "ok")
      | Error e -> ([ "ERR " ^ Error.to_string e ], Error.class_name e)
    in
    (match latency_histogram verb with
    | Some h -> Histogram.record h duration
    | None -> ());
    record_histograms ~verb ~lines;
    log_request ~id ~conn ~verb
      ~revision:(Abox.revision (Session.abox session))
      ~outcome ~duration ~lines ~spans;
    (* a mutation just acknowledged may have tripped --checkpoint-every *)
    (match (result, verb) with
    | Ok _, ("ASSERT" | "RETRACT" | "LOAD") -> auto_checkpoint session
    | _ -> ());
    (lines, stop)

let run session ~input ~output =
  let rec loop () =
    match input () with
    | None -> ()
    | Some line ->
      let lines, stop = handle_line session line in
      List.iter output lines;
      if not stop then loop ()
  in
  loop ()

(* [In_channel.input_line] splits on ['\n'] only, so a CRLF client (or a
   CRLF [--script] fixture) would hand every request a trailing ['\r'];
   strip it at the read site, mirroring the data-format parsers. *)
let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let run_channels session ic oc =
  run session
    ~input:(fun () -> Option.map strip_cr (In_channel.input_line ic))
    ~output:(fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)
