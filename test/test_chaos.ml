(* Chaos suite: inject a fault at every registered fault site on the Fig. 2
   example OMQ (the RSR-prefix of sequence q1 over an example-11-style
   ontology) and check the failure invariants hold site by site:

   - the process exits with the documented code of the site's error class;
   - stdout carries no partial answer rows;
   - the trace file is flushed and every line re-parses via [Obda_obs.Json];
   - a fault-free rerun still produces the baseline answers.

   The site [eval.linear.round] is not reachable from the CLI (the linear
   engine is a library-level cross-check), so it is exercised in-process;
   the suite ends with an exhaustiveness check that fails when a site
   registered in [Obda_runtime.Fault] has no chaos case here.

   Usage: test_chaos <obda-exe> <chaos-dir> *)

module Fault = Obda_runtime.Fault
module Error = Obda_runtime.Error
module Budget = Obda_runtime.Budget

let total = ref 0
let failures = ref 0

let check name ok detail =
  incr total;
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    Printf.printf "FAIL %s: %s\n%!" name detail;
    incr failures
  end

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let non_json_lines path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Obda_obs.Json.parse line with
        | Ok _ -> None
        | Error e -> Some (Printf.sprintf "%S: %s" line e))
    (read_lines path)

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: test_chaos <obda-exe> <chaos-dir>";
    exit 2
  end

let exe = Sys.argv.(1)
let dir = Sys.argv.(2)
let data file = Filename.concat dir file

let base_args =
  [
    "answer"; "-o"; data "seq.onto"; "-q"; data "seq.cq"; "-d"; data "seq.data";
  ]

(* run [exe args], returning (exit code, stdout lines) *)
let run ?stderr_to args =
  let out = Filename.temp_file "obda-chaos" ".out" in
  let err = match stderr_to with Some f -> f | None -> "/dev/null" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let lines = read_lines out in
  Sys.remove out;
  (code, lines)

(* a CLI chaos case: one site, the args that make it fire at activation 1 *)
let cli_case site_name extra_args =
  let site =
    match Fault.find_site site_name with
    | Some s -> s
    | None -> failwith ("unregistered site in case table: " ^ site_name)
  in
  let args = base_args @ extra_args in
  let expected_exit = Fault.cls_exit_code (Fault.site_default site) in
  (* baseline, fault-free *)
  let base_code, baseline = run args in
  check
    (site_name ^ ": fault-free baseline")
    (base_code = 0 && baseline <> [])
    (Printf.sprintf "exit %d, %d stdout lines" base_code
       (List.length baseline));
  (* injected run: fault at the first activation, trace requested *)
  let trace = Filename.temp_file "obda-chaos" ".jsonl" in
  let errf = Filename.temp_file "obda-chaos" ".err" in
  let code, stdout_lines =
    run ~stderr_to:errf
      (args @ [ "--inject"; site_name ^ "@1"; "--trace=" ^ trace ])
  in
  check
    (site_name ^ ": documented exit code")
    (code = expected_exit)
    (Printf.sprintf "exit %d, want %d" code expected_exit);
  check
    (site_name ^ ": no partial answer rows")
    (stdout_lines = [])
    (Printf.sprintf "%d stdout lines" (List.length stdout_lines));
  let bad = non_json_lines trace in
  check
    (site_name ^ ": trace flushed and re-parses")
    (bad = [])
    (String.concat "; " bad);
  let fired_line = Printf.sprintf "# fault: fired %s@1" site_name in
  check
    (site_name ^ ": fired activation reported")
    (List.mem fired_line (read_lines errf))
    ("no " ^ fired_line ^ " on stderr");
  Sys.remove trace;
  Sys.remove errf;
  (* fault-free rerun: no poisoned state, seed answers are back *)
  let rerun_code, rerun = run args in
  check
    (site_name ^ ": fault-free rerun restores answers")
    (rerun_code = 0 && rerun = baseline)
    (Printf.sprintf "exit %d, %d lines (want %d)" rerun_code
       (List.length rerun) (List.length baseline));
  site_name

(* [eval.linear.round] has no CLI surface: drive the linear engine
   in-process with an armed plan, then fault-free with the plan disarmed *)
let linear_case () =
  let site_name = "eval.linear.round" in
  let tbox = Obda_parse.Parse.ontology_of_file (data "seq.onto") in
  let cq = Obda_parse.Parse.query_of_file (data "seq.cq") in
  let abox = Obda_parse.Parse.data_of_file (data "seq.data") in
  let omq = Obda_rewriting.Omq.make tbox cq in
  let q = Obda_rewriting.Omq.rewrite Obda_rewriting.Omq.Lin omq in
  let baseline = Obda_ndl.Linear_eval.answers q abox in
  check
    (site_name ^ ": fault-free baseline")
    (baseline <> []) "no baseline answers";
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan -> (
    Fault.arm plan;
    (match Obda_ndl.Linear_eval.answers q abox with
    | _ ->
      Fault.disarm ();
      check (site_name ^ ": injected fault raises") false "returned answers"
    | exception Error.Obda_error (Error.Budget_exhausted _ as e) ->
      let fired = Fault.fired () in
      Fault.disarm ();
      check
        (site_name ^ ": documented exit code")
        (Error.exit_code e = Fault.cls_exit_code Fault.Budget)
        (Printf.sprintf "exit %d" (Error.exit_code e));
      check
        (site_name ^ ": fired activation recorded")
        (List.exists
           (fun (s, n) -> Fault.site_name s = site_name && n = 1)
           fired)
        "activation 1 not in Fault.fired ()"
    | exception e ->
      Fault.disarm ();
      check
        (site_name ^ ": injected fault raises")
        false
        ("unexpected exception " ^ Printexc.to_string e));
    check
      (site_name ^ ": fault-free rerun restores answers")
      (Obda_ndl.Linear_eval.answers q abox = baseline)
      "rerun differs from baseline"));
  site_name

(* The service sites are in-protocol: a fault at [service.request] or
   [service.cache] surfaces as an [ERR class=...] line from the serve loop,
   never as a process exit — and the session absorbs it, so the same
   request succeeds on retry while the plan is still armed. *)
let service_case site_name =
  let module Session = Obda_service.Session in
  let module Serve = Obda_service.Serve in
  let site =
    match Fault.find_site site_name with
    | Some s -> s
    | None -> failwith ("unregistered site in case table: " ^ site_name)
  in
  let cq_text = String.trim (String.concat " " (read_lines (data "seq.cq"))) in
  let prepare_line = "PREPARE q " ^ cq_text in
  let fresh () =
    let s = Session.create () in
    Session.load_ontology s
      (Obda_parse.Parse.ontology_of_file (data "seq.onto"));
    Session.load_data s (Obda_parse.Parse.data_of_file (data "seq.data"));
    s
  in
  let transcript session =
    (* sequence explicitly: [@] evaluates its right operand first *)
    let prepared = fst (Serve.handle_line session prepare_line) in
    let answered = fst (Serve.handle_line session "ANSWER q") in
    prepared @ answered
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let baseline = transcript (fresh ()) in
  check
    (site_name ^ ": fault-free baseline")
    (baseline <> [] && List.for_all (fun l -> not (starts_with "ERR" l)) baseline)
    (String.concat " | " baseline);
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    let session = fresh () in
    Fault.arm plan;
    let lines, stop = Serve.handle_line session prepare_line in
    let expected = "ERR class=" ^ Fault.cls_name (Fault.site_default site) in
    let got = match lines with l :: _ -> l | [] -> "<no response>" in
    check
      (site_name ^ ": in-protocol ERR line")
      (starts_with expected got)
      (Printf.sprintf "%S, want prefix %S" got expected);
    check (site_name ^ ": loop continues past the fault") (not stop)
      "QUIT signalled";
    (* activation 1 has passed: the same request now succeeds with the
       plan still armed, proving the session was not poisoned *)
    let retry = transcript session in
    let fired = Fault.fired () in
    Fault.disarm ();
    check
      (site_name ^ ": session usable after fault")
      (retry = baseline) "retry transcript differs from baseline";
    check
      (site_name ^ ": fired activation recorded")
      (List.exists
         (fun (s, n) -> Fault.site_name s = site_name && n = 1)
         fired)
      "activation 1 not in Fault.fired ()");
  (* fault-free rerun from scratch *)
  check
    (site_name ^ ": fault-free rerun restores answers")
    (transcript (fresh ()) = baseline)
    "rerun differs from baseline";
  site_name

(* [abox.snapshot] fires inside the freeze an ANSWER takes before
   evaluating: an in-protocol ERR, the serve loop continues, and the same
   request succeeds on retry — the session is never poisoned mid-freeze. *)
let snapshot_case () =
  let site_name = "abox.snapshot" in
  let module Session = Obda_service.Session in
  let module Serve = Obda_service.Serve in
  let cq_text = String.trim (String.concat " " (read_lines (data "seq.cq"))) in
  let fresh () =
    let s = Session.create () in
    Session.load_ontology s
      (Obda_parse.Parse.ontology_of_file (data "seq.onto"));
    Session.load_data s (Obda_parse.Parse.data_of_file (data "seq.data"));
    ignore (Serve.handle_line s ("PREPARE q " ^ cq_text));
    s
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let session = fresh () in
  let baseline = fst (Serve.handle_line session "ANSWER q") in
  check
    (site_name ^ ": fault-free baseline")
    (match baseline with l :: _ -> starts_with "OK answers=" l | [] -> false)
    (String.concat " | " baseline);
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    Fault.arm plan;
    let lines, stop = Serve.handle_line session "ANSWER q" in
    check
      (site_name ^ ": in-protocol ERR on the freeze")
      (match lines with l :: _ -> starts_with "ERR class=internal" l | [] -> false)
      (String.concat " | " lines);
    check (site_name ^ ": loop continues past the fault") (not stop)
      "QUIT signalled";
    let retry = fst (Serve.handle_line session "ANSWER q") in
    let fired = Fault.fired () in
    Fault.disarm ();
    check
      (site_name ^ ": retry answers at the live revision")
      (retry = baseline) "retry differs from baseline";
    check
      (site_name ^ ": fired activation recorded")
      (List.exists
         (fun (s, n) -> Fault.site_name s = site_name && n = 1)
         fired)
      "activation 1 not in Fault.fired ()");
  site_name

(* [obs.export] fires at the top of the METRICS exposition render: the
   request fails with an in-protocol ERR, the serve loop continues, and
   the next METRICS renders the same exposition shape — telemetry export
   can fail without taking the session with it. *)
let obs_export_case () =
  let site_name = "obs.export" in
  let module Session = Obda_service.Session in
  let module Serve = Obda_service.Serve in
  let fresh () =
    let s = Session.create () in
    Session.load_ontology s
      (Obda_parse.Parse.ontology_of_file (data "seq.onto"));
    Session.load_data s (Obda_parse.Parse.data_of_file (data "seq.data"));
    s
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  (* successive METRICS responses differ in gauge values (the session's
     request counter, for one) but announce the same line count *)
  let announced = function
    | l :: _ when starts_with "OK metrics=" l ->
      int_of_string_opt (String.sub l 11 (String.length l - 11))
    | _ -> None
  in
  let session = fresh () in
  let baseline = fst (Serve.handle_line session "METRICS") in
  check
    (site_name ^ ": fault-free baseline")
    (match announced baseline with
    | Some n -> n > 0 && List.length baseline = n + 1
    | None -> false)
    (String.concat " | " baseline);
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    Fault.arm plan;
    let lines, stop = Serve.handle_line session "METRICS" in
    check
      (site_name ^ ": in-protocol ERR on the render")
      (match lines with
      | l :: _ -> starts_with "ERR class=internal" l
      | [] -> false)
      (String.concat " | " lines);
    check (site_name ^ ": loop continues past the fault") (not stop)
      "QUIT signalled";
    let retry = fst (Serve.handle_line session "METRICS") in
    let fired = Fault.fired () in
    Fault.disarm ();
    check
      (site_name ^ ": retry renders the same exposition shape")
      (announced retry = announced baseline)
      "retry line count differs from baseline";
    check
      (site_name ^ ": fired activation recorded")
      (List.exists
         (fun (s, n) -> Fault.site_name s = site_name && n = 1)
         fired)
      "activation 1 not in Fault.fired ()");
  (* the session is still usable for ordinary requests afterwards *)
  check
    (site_name ^ ": session usable after the fault")
    (match fst (Serve.handle_line session "STATS") with
    | l :: _ -> starts_with "OK stats=" l
    | [] -> false)
    "STATS failed after the METRICS fault";
  site_name

(* The network-server sites guard the accept loop ([serve.accept]) and the
   per-connection handler ([serve.connection]): an injected fault shears
   off exactly one connection — the shed client reads a single ERR line
   and then EOF — while the listener survives and keeps serving.  Driven
   against an in-process server over a Unix socket. *)
let server_case site_name =
  let module Session = Obda_service.Session in
  let module Server = Obda_service.Server in
  let module Client = Obda_service.Client in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let session = Session.create () in
  Session.load_ontology session
    (Obda_parse.Parse.ontology_of_file (data "seq.onto"));
  Session.load_data session (Obda_parse.Parse.data_of_file (data "seq.data"));
  let path = Filename.temp_file "obda-chaos" ".sock" in
  Sys.remove path;
  let address = Server.Unix_socket path in
  let server = Server.create ~connections:2 address session in
  let code = ref (-2) in
  let thread = Thread.create (fun () -> code := Server.run server) () in
  (* fault-free baseline connection *)
  let c = Client.connect address in
  let baseline = Client.request c "STATS" in
  check
    (site_name ^ ": fault-free baseline")
    (match baseline with l :: _ -> starts_with "OK stats=" l | [] -> false)
    (String.concat " | " baseline);
  ignore (Client.request c "QUIT");
  Client.close c;
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    Fault.arm plan;
    Thread.delay 0.05;
    (* the faulted connection gets one ERR line, then EOF *)
    let c1 = Client.connect address in
    let shed = Client.read_response c1 in
    check
      (site_name ^ ": exactly one connection killed with an ERR line")
      (match shed with [ l ] -> starts_with "ERR class=internal" l | _ -> false)
      (String.concat " | " shed);
    check
      (site_name ^ ": killed connection reads EOF")
      (Client.read_response c1 = [])
      "more data after the ERR";
    Client.close c1;
    (* activation 1 has passed: the next connection is served normally
       with the plan still armed — the listener survived *)
    let c2 = Client.connect address in
    let again = Client.request c2 "STATS" in
    check
      (site_name ^ ": server keeps serving")
      (match again with l :: _ -> starts_with "OK stats=" l | [] -> false)
      (String.concat " | " again);
    ignore (Client.request c2 "QUIT");
    Client.close c2;
    (* the hit counter was bumped on another domain; give the publication
       a moment before reading it from this one *)
    let rec fired_eventually tries =
      let hit =
        List.exists
          (fun (s, n) -> Fault.site_name s = site_name && n = 1)
          (Fault.fired ())
      in
      if hit || tries = 0 then hit
      else begin
        Thread.delay 0.02;
        fired_eventually (tries - 1)
      end
    in
    let hit = fired_eventually 50 in
    Fault.disarm ();
    check (site_name ^ ": fired activation recorded") hit
      "activation 1 not in Fault.fired ()");
  Server.stop server;
  Thread.join thread;
  check
    (site_name ^ ": graceful stop after the fault")
    (!code = 0)
    (Printf.sprintf "run returned %d" !code);
  site_name

(* The durability sites.  [wal.append] and [wal.sync] guard the mutation
   path of a durable session: an injected fault surfaces as the mutation
   request's in-protocol ERR, the store does NOT apply the mutation
   (log-before-apply), recovery agrees with the live store, and the next
   mutation succeeds with the plan still armed. *)
let wal_mutation_case site_name =
  let module Session = Obda_service.Session in
  let module Serve = Obda_service.Serve in
  let module Wal = Obda_service.Wal in
  let module Abox = Obda_data.Abox in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let dir =
    let d = Filename.temp_file "obda-chaos-wal" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let facts_key abox =
    Abox.to_facts abox
    |> List.map (Format.asprintf "%a" Abox.pp_fact)
    |> List.sort compare |> String.concat ";"
  in
  let session = Session.create () in
  let wal, _ = Wal.open_ dir in
  Serve.attach_wal session wal;
  let exec line = fst (Serve.handle_line session line) in
  let ok = function l :: _ -> starts_with "OK" l | [] -> false in
  check (site_name ^ ": fault-free baseline mutation")
    (ok (exec "ASSERT A(seed)"))
    "seed assert failed";
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    Fault.arm plan;
    let lines, stop = Serve.handle_line session "ASSERT A(lost)" in
    check
      (site_name ^ ": in-protocol ERR on the mutation")
      (match lines with
      | l :: _ -> starts_with "ERR class=internal" l
      | [] -> false)
      (String.concat " | " lines);
    check (site_name ^ ": loop continues past the fault") (not stop)
      "QUIT signalled";
    check
      (site_name ^ ": store does not apply the unacknowledged mutation")
      (not (Abox.mem_unary (Session.abox session)
              (Obda_syntax.Symbol.intern "A")
              (Obda_syntax.Symbol.intern "lost")))
      "A(lost) is in the store";
    (* activation 1 has passed: mutations work again, plan still armed *)
    let retried = ok (exec "ASSERT A(retry)") in
    let fired = Fault.fired () in
    Fault.disarm ();
    check (site_name ^ ": session usable after the fault") retried
      "retry mutation failed";
    check
      (site_name ^ ": fired activation recorded")
      (List.exists
         (fun (s, n) -> Fault.site_name s = site_name && n = 1)
         fired)
      "activation 1 not in Fault.fired ()");
  (* recovery sees exactly the acknowledged mutations *)
  let live = facts_key (Session.abox session) in
  Serve.detach_wal session;
  Wal.close wal;
  let recovered = Wal.recover dir in
  check
    (site_name ^ ": recovery equals the acknowledged state")
    (facts_key recovered.Wal.abox = live)
    "recovered store differs from the live one";
  site_name

(* [wal.recover] guards the recovery entry point: the injected fault is a
   typed startup error with the internal exit code — never a silent empty
   start — and the fault-free retry recovers the state. *)
let wal_recover_case () =
  let site_name = "wal.recover" in
  let module Wal = Obda_service.Wal in
  let module Abox = Obda_data.Abox in
  let dir =
    let d = Filename.temp_file "obda-chaos-wal" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let wal, _ = Wal.open_ dir in
  Wal.append wal (Wal.Assert [ Abox.Concept_assertion (Obda_syntax.Symbol.intern "A", Obda_syntax.Symbol.intern "a") ]) ~revision:1;
  Wal.close wal;
  (match Fault.parse_plan (site_name ^ "@1") with
  | Error e -> check (site_name ^ ": plan parses") false e
  | Ok plan ->
    Fault.arm plan;
    (match Wal.recover dir with
    | _ ->
      Fault.disarm ();
      check (site_name ^ ": injected fault raises") false "recover succeeded"
    | exception Error.Obda_error e ->
      let fired = Fault.fired () in
      Fault.disarm ();
      check
        (site_name ^ ": typed error with the internal exit code")
        (Error.exit_code e = Fault.cls_exit_code Fault.Internal)
        (Printf.sprintf "exit %d" (Error.exit_code e));
      check
        (site_name ^ ": fired activation recorded")
        (List.exists
           (fun (s, n) -> Fault.site_name s = site_name && n = 1)
           fired)
        "activation 1 not in Fault.fired ()"
    | exception e ->
      Fault.disarm ();
      check (site_name ^ ": injected fault raises Obda_error") false
        ("unexpected exception " ^ Printexc.to_string e)));
  (* fault-free rerun restores the record *)
  let recovered = Wal.recover dir in
  check
    (site_name ^ ": fault-free rerun recovers the state")
    (recovered.Wal.replayed = 1 && Abox.num_atoms recovered.Wal.abox = 1)
    (Printf.sprintf "replayed %d, atoms %d" recovered.Wal.replayed
       (Abox.num_atoms recovered.Wal.abox));
  site_name

let () =
  let covered =
    [
      (* chase layer: apply-step and null creation, on the chase oracle *)
      cli_case "chase.step" [ "--chase" ];
      cli_case "chase.null" [ "--chase" ];
      (* one case per rewriter's emission point *)
      cli_case "rewrite.tw.emit" [ "-a"; "tw" ];
      cli_case "rewrite.lin.emit" [ "-a"; "lin" ];
      cli_case "rewrite.log.emit" [ "-a"; "log" ];
      cli_case "rewrite.ucq.emit" [ "-a"; "ucq" ];
      cli_case "rewrite.ucq_condensed.emit" [ "-a"; "ucq-condensed" ];
      cli_case "rewrite.presto.emit" [ "-a"; "presto" ];
      (* evaluator round boundaries *)
      cli_case "eval.ndl.round" [ "-a"; "tw" ];
      linear_case ();
      (* the three parser entry points *)
      cli_case "parse.tbox" [];
      cli_case "parse.cq" [];
      cli_case "parse.abox" [];
      (* trace-sink write: the injected run always passes --trace *)
      cli_case "obs.sink.write" [];
      (* service layer: faults become in-protocol ERR lines *)
      service_case "service.request";
      service_case "service.cache";
      snapshot_case ();
      (* telemetry export: METRICS render fails in protocol *)
      obs_export_case ();
      (* network-server sites: an in-process server over a Unix socket *)
      server_case "serve.accept";
      server_case "serve.connection";
      (* durability: WAL appends/syncs fail in protocol, recovery fails
         typed at startup *)
      wal_mutation_case "wal.append";
      wal_mutation_case "wal.sync";
      wal_recover_case ();
    ]
  in
  (* exhaustiveness: every registered site must have a chaos case *)
  let uncovered =
    List.filter
      (fun s -> not (List.mem (Fault.site_name s) covered))
      (Fault.sites ())
  in
  check "every registered fault site has a chaos case" (uncovered = [])
    (String.concat ", " (List.map Fault.site_name uncovered));
  Printf.printf "chaos: %d checks, %d failures\n%!" !total !failures;
  exit (if !failures = 0 then 0 else 1)
