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
  untap : unit -> unit;  (** takes the slow-query sink out of [Obs] *)
}

let access_log : access_log option ref = ref None
let access_log_mutex = Mutex.create ()

(* The slow-query sink, teed into telemetry while [--slow-ms] is armed:
   each domain buffers the spans it closes, newest first, for the request
   it is serving ([handle_line] empties the buffer as a request starts).
   A root span outside any request drops the buffer. *)
let domain_spans : Obs.span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let slow_sink =
  let on_span (s : Obs.span) =
    let spans = Domain.DLS.get domain_spans in
    spans := if s.depth = 0 && s.name <> "service.request" then [] else s :: !spans
  in
  { Obs.null_sink with on_span }

let clear_access_log () =
  Option.iter (fun log -> access_log := None; log.untap ()) !access_log

let set_access_log ?slow_ms write =
  clear_access_log ();
  let untap = if slow_ms = None then ignore else Obs.tap slow_sink in
  access_log := Some { write; slow_ms; untap }

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

(* A response as [exec] hands it to [handle_line]: the lines, with the
   tuple count of a non-boolean ANSWER (for [serve.answer.count]) and the
   cache origin of a PREPARE (for the access log). *)
type response = {
  lines : string list;
  answers : int option;
  origin : [ `Hit | `Miss ] option;
}

let reply ?answers ?origin lines = { lines; answers; origin }

let exec ?budget session (req : Protocol.request) =
  match req with
  | Protocol.Load_ontology file ->
    let tbox = Parse.ontology_of_file file in
    Session.load_ontology session tbox;
    reply
      [
        Format.asprintf "OK ontology axioms=%d depth=%a"
          (List.length (Tbox.axioms tbox))
          Tbox.pp_depth (Tbox.depth tbox);
      ]
  | Protocol.Load_data file ->
    let abox = Parse.data_of_file file in
    Session.load_data session abox;
    reply
      [
        Printf.sprintf "OK data atoms=%d individuals=%d"
          (Abox.num_atoms abox) (Abox.num_individuals abox);
      ]
  | Protocol.Prepare { name; algorithm; cq } ->
    let cq = Parse.query_of_string cq in
    let prepared, origin = Session.prepare ?budget session ~name ?algorithm cq in
    reply ~origin
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
      reply [ Printf.sprintf "OK boolean=%b" (answers <> []) ]
    else
      let n = List.length answers in
      reply ~answers:n
        (Printf.sprintf "OK answers=%d" n :: List.map tuple_string answers)
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
    reply
    @@ Printf.sprintf "OK batch=%d" (List.length work)
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
    reply [ Printf.sprintf "OK asserted added=%d atoms=%d" added atoms ]
  | Protocol.Retract_facts text ->
    let facts = Parse.facts_of_string text in
    let removed, atoms = Session.retract_facts session facts in
    reply [ Printf.sprintf "OK retracted removed=%d atoms=%d" removed atoms ]
  | Protocol.Stats ->
    let stats = Session.stats session in
    reply
      (Printf.sprintf "OK stats=%d" (List.length stats)
      :: List.map Exposition.stats_line stats)
  | Protocol.Metrics ->
    (* stats rows (session + server hook) as counters/gauges, plus every
       registered histogram; the render is guarded by [obs.export] *)
    let text = Exposition.render (Session.stats session) in
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
    in
    reply (Printf.sprintf "OK metrics=%d" (List.length lines) :: lines)
  | Protocol.Ping ->
    reply
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
      reply [ Printf.sprintf "OK checkpoint seq=%d" seq ])
  | Protocol.Quit -> reply [ "OK bye" ]

let protocol_error msg line =
  Error.Parse_error
    {
      loc = { file = None; line = 0; column = None };
      msg;
      source_line = Some line;
    }

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
let log_request ~id ~conn ~verb ~revision ~outcome ~duration ~origin ~spans =
  match !access_log with
  | None -> ()
  | Some { write; slow_ms; _ } ->
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
        match origin with
        | Some o -> [ ("cache", Json.String (origin_string o)) ]
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
          Obs.incr "serve.access_log.errors";
          clear_access_log ())

let record_histograms ~answers ~lines =
  if Histogram.recording () then begin
    Option.iter
      (fun n -> Histogram.record h_answer_count (float_of_int n))
      answers;
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
    (* an armed slow-query sink buffers this request's spans here *)
    let spans = Domain.DLS.get domain_spans in
    spans := [];
    let t0 = Unix.gettimeofday () in
    let result = run () in
    let duration = Unix.gettimeofday () -. t0 in
    let r, outcome =
      match result with
      | Ok r -> (r, "ok")
      | Error e -> (reply [ "ERR " ^ Error.to_string e ], Error.class_name e)
    in
    (match latency_histogram verb with
    | Some h -> Histogram.record h duration
    | None -> ());
    record_histograms ~answers:r.answers ~lines:r.lines;
    log_request ~id ~conn ~verb
      ~revision:(Abox.revision (Session.abox session))
      ~outcome ~duration ~origin:r.origin ~spans:(List.rev !spans);
    (* a mutation just acknowledged may have tripped --checkpoint-every *)
    (match (result, verb) with
    | Ok _, ("ASSERT" | "RETRACT" | "LOAD") -> auto_checkpoint session
    | _ -> ());
    (r.lines, stop)

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
