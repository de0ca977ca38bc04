(* serve-load: a closed-loop load generator against the concurrent network
   server.  1/8/64 clients hammer one shared session over a Unix socket
   with a mixed workload — every fourth client alternates ASSERT/RETRACT of
   its own fact, everyone else issues ANSWER — and the harness reports
   req/s with p50/p95/p99 latency per level.

   The workload doubles as a snapshot-correctness check: the prepared
   query is qsq(x,y) <- A(x), A(y), whose certain-answer count over any
   frozen ABox is n² for n resident A-facts.  A torn read — evaluation
   overlapping a writer's mutation — would produce a non-square count
   (n·(n+1) and the like), so "every response was a perfect square" is
   exactly "every ANSWER saw one frozen revision". *)

open Bench_support
module Server = Obda_service.Server
module Client = Obda_service.Client
module Session = Obda_service.Session
module Abox = Obda_data.Abox
module Symbol = Obda_syntax.Symbol
module Histogram = Obda_obs.Histogram

(* exact sorted-array percentile at the same rank convention as
   [Histogram.quantile] (rank = max 1 (ceil (q * n)), 1-based), so the
   two estimates bracket the same order statistic and must agree within
   one bucket's relative error *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    sorted.(min (n - 1) (rank - 1))

let is_square n =
  n >= 0
  &&
  let r = int_of_float (sqrt (float_of_int n) +. 0.5) in
  r * r = n

let connections = 8
let ops_per_client = 40
let seed_facts = 10

(* One closed-loop pass of the mixed workload: [clients] threads, one
   connection each, [ops_per_client] requests apiece.  Every request's
   latency goes into its client's histogram (merged after the join: the
   same shape the server uses per connection, so this doubles as a merge
   correctness check under real contention) and into an exact array, which
   comes back sorted.  Recording costs a few ns against requests of tens
   of µs (see [obs-overhead]), so the throughput probe of the durability
   leg is this same loop. *)
type pass = {
  rate : float;  (* requests per second *)
  latencies : float array;  (* seconds, sorted *)
  merged : Histogram.t;
  non_square : int;
  errors : int;
}

let run_clients address clients =
  let latencies = Array.make (clients * ops_per_client) 0. in
  let hists =
    Array.init clients (fun ci ->
        Histogram.create ~scale:1e9 (Printf.sprintf "load.c%d.%d" clients ci))
  in
  let non_square = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let client_body ci =
    let cl = Client.connect address in
    let fact = Printf.sprintf "A(w%d_%d)" clients ci in
    let present = ref false in
    for op = 0 to ops_per_client - 1 do
      let req =
        if ci mod 4 = 0 && op mod 2 = 1 then
          if !present then begin
            present := false;
            "RETRACT " ^ fact
          end
          else begin
            present := true;
            "ASSERT " ^ fact
          end
        else "ANSWER qsq"
      in
      let t = Unix.gettimeofday () in
      let resp = Client.request cl req in
      let dt = Unix.gettimeofday () -. t in
      latencies.((ci * ops_per_client) + op) <- dt;
      Histogram.record hists.(ci) dt;
      match resp with
      | first :: _ when String.starts_with ~prefix:"OK answers=" first -> (
        match
          int_of_string_opt (String.sub first 11 (String.length first - 11))
        with
        | Some n when is_square n -> ()
        | _ -> Atomic.incr non_square)
      | first :: _ when String.starts_with ~prefix:"OK" first -> ()
      | _ -> Atomic.incr errors
    done;
    ignore (Client.request cl "QUIT");
    Client.close cl
  in
  let threads = List.init clients (fun ci -> Thread.create client_body ci) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  let merged = Histogram.create ~scale:1e9 (Printf.sprintf "load.c%d" clients) in
  Array.iter (fun h -> Histogram.merge_into ~into:merged h) hists;
  {
    rate = float_of_int (clients * ops_per_client) /. wall;
    latencies;
    merged;
    non_square = Atomic.get non_square;
    errors = Atomic.get errors;
  }

(* One 8-client throughput measurement on a fresh server, with or without
   a WAL: identical session/server config, one discarded warmup pass, then
   the measured pass.  Returns (rate, non_square, errors), the last two
   accumulated over BOTH passes. *)
let measure_8_clients ~durable =
  let module Wal = Obda_service.Wal in
  let module Serve = Obda_service.Serve in
  let session = Session.create () in
  Session.load_ontology session (example11 ());
  let wal =
    if not durable then None
    else begin
      let dir = Filename.temp_file "obda-bench-wal" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let wal, _ = Wal.open_ ~policy:(Wal.Interval 0.1) dir in
      Serve.attach_wal session wal;
      Some wal
    end
  in
  ignore
    (Session.assert_facts session
       (List.init seed_facts (fun i ->
            Abox.Concept_assertion
              (Symbol.intern "A", Symbol.intern (Printf.sprintf "base%d" i)))));
  let path = Filename.temp_file "obda-bench" ".sock" in
  Sys.remove path;
  let address = Server.Unix_socket path in
  let server =
    Server.create ~connections ~backlog:128 ~max_inflight:connections address
      session
  in
  let server_thread = Thread.create (fun () -> ignore (Server.run server)) () in
  let c0 = Client.connect address in
  (match Client.request c0 "PREPARE qsq q(x,y) <- A(x), A(y)" with
  | first :: _ when String.starts_with ~prefix:"OK" first -> ()
  | other -> failwith ("PREPARE failed: " ^ String.concat " | " other));
  ignore (Client.request c0 "QUIT");
  Client.close c0;
  let warm = run_clients address 8 in
  let measured = run_clients address 8 in
  Server.stop server;
  Thread.join server_thread;
  (match wal with
  | Some wal ->
    Serve.detach_wal session;
    Wal.close wal
  | None -> ());
  ( measured.rate,
    measured.non_square + warm.non_square,
    measured.errors + warm.errors )

(* Durability leg: the 8-client level against a session whose mutations go
   through a WAL with --durability=interval:100.  ANSWERs dominate the mix
   and never touch the log, and the interval policy bounds fsyncs to one
   per 100 ms window, so the acknowledged-durable server must stay within
   1.5x of the in-memory baseline.

   Honest pairing: the baseline is re-measured here, back-to-back with the
   durable leg, through the same loop and the same warmed config.  (An
   earlier revision took the baseline from a different pass, which made
   the durable leg look faster than in-memory, slowdown 0.84x.  A slowdown
   below 0.9x fails the bench as a pairing bias.) *)
let durable_leg () =
  let mem_rate, mem_ns, mem_errs = measure_8_clients ~durable:false in
  let dur_rate, dur_ns, dur_errs = measure_8_clients ~durable:true in
  let slowdown = mem_rate /. dur_rate in
  record_float "durable.baseline_req_s" mem_rate;
  record_float "durable.req_s" dur_rate;
  record_float "durable.slowdown" slowdown;
  record_int "durable.non_square" (mem_ns + dur_ns);
  record_int "durable.errors" (mem_errs + dur_errs);
  Printf.printf
    "durable (8 clients, interval:100): %.0f req/s vs %.0f req/s in-memory \
     — %.2fx slowdown (acceptance: within [0.9x, 1.5x], squares intact)\n"
    dur_rate mem_rate slowdown;
  if mem_ns + dur_ns > 0 then
    failwith "snapshot isolation violated (durable leg)";
  if mem_errs + dur_errs > 0 then failwith "request errors on the durable leg";
  if slowdown > 1.5 then
    failwith
      (Printf.sprintf "durability slowdown %.2fx exceeds the 1.5x budget"
         slowdown);
  if slowdown < 0.9 then
    failwith
      (Printf.sprintf
         "durability slowdown %.2fx is implausibly low: the legs are not \
          measuring the same workload (pairing bias)"
         slowdown)

let run () =
  print_header
    "serve-load: closed-loop clients over a Unix socket, mixed \
     ASSERT/RETRACT + ANSWER (answer counts must stay perfect squares)";
  let session = Session.create () in
  Session.load_ontology session (example11 ());
  ignore
    (Session.assert_facts session
       (List.init seed_facts (fun i ->
            Abox.Concept_assertion
              (Symbol.intern "A", Symbol.intern (Printf.sprintf "base%d" i)))));
  let path = Filename.temp_file "obda-bench" ".sock" in
  Sys.remove path;
  let address = Server.Unix_socket path in
  let server =
    Server.create ~connections ~backlog:128 ~max_inflight:connections address
      session
  in
  let server_thread = Thread.create (fun () -> ignore (Server.run server)) () in
  let c0 = Client.connect address in
  (match Client.request c0 "PREPARE qsq q(x,y) <- A(x), A(y)" with
  | first :: _ when String.starts_with ~prefix:"OK" first -> ()
  | other -> failwith ("PREPARE failed: " ^ String.concat " | " other));
  ignore (Client.request c0 "QUIT");
  Client.close c0;
  Printf.printf
    "server: connections=%d backlog=128 max-inflight=%d; %d seed facts, %d \
     ops/client\n"
    connections connections seed_facts ops_per_client;
  let widths = [ 9; 7; 9; 10; 10; 10; 9; 7 ] in
  print_row widths
    [ "clients"; "reqs"; "req/s"; "p50(ms)"; "p95(ms)"; "p99(ms)"; "squares"; "errs" ];
  let prev_recording = Histogram.recording () in
  Histogram.set_enabled true;
  let all_square = ref true in
  let all_agree = ref true in
  List.iter
    (fun clients ->
      let p = run_clients address clients in
      let snap = Histogram.snapshot p.merged in
      (* histogram quantile (bucket upper bound) vs the exact order
         statistic at the same rank: the exact value must lie inside the
         quantile's bucket, i.e. in (hq/ratio, hq] *)
      let quantile_ms q =
        let hq = Histogram.quantile snap q in
        let exact = percentile p.latencies q in
        if not (exact <= hq *. 1.000001 && exact > hq /. Histogram.ratio *. 0.999999)
        then begin
          all_agree := false;
          Printf.printf
            "DISAGREE c%d q%.2f: histogram %.6fs vs exact %.6fs\n" clients q
            hq exact
        end;
        hq *. 1000.
      in
      let p50 = quantile_ms 0.50
      and p95 = quantile_ms 0.95
      and p99 = quantile_ms 0.99 in
      let squares_ok = p.non_square = 0 in
      if not squares_ok then all_square := false;
      let tag fmt = Printf.sprintf "c%d.%s" clients fmt in
      record_float (tag "req_s") p.rate;
      record_float (tag "p50_ms") p50;
      record_float (tag "p95_ms") p95;
      record_float (tag "p99_ms") p99;
      record_float (tag "exact_p50_ms") (percentile p.latencies 0.50 *. 1000.);
      record_float (tag "exact_p95_ms") (percentile p.latencies 0.95 *. 1000.);
      record_float (tag "exact_p99_ms") (percentile p.latencies 0.99 *. 1000.);
      record_int (tag "non_square") p.non_square;
      record_int (tag "errors") p.errors;
      print_row widths
        [
          string_of_int clients;
          string_of_int (Array.length p.latencies);
          Printf.sprintf "%.0f" p.rate;
          Printf.sprintf "%.2f" p50;
          Printf.sprintf "%.2f" p95;
          Printf.sprintf "%.2f" p99;
          (if squares_ok then "yes" else "NO");
          string_of_int p.errors;
        ])
    [ 1; 8; 64 ];
  Server.stop server;
  Thread.join server_thread;
  Fun.protect
    ~finally:(fun () -> Histogram.set_enabled prev_recording)
    durable_leg;
  Printf.printf
    "(squares=yes on every level: no ANSWER ever saw a torn revision; \
     quantiles from merged per-client histograms, checked against exact \
     sorted-array percentiles within one bucket; acceptance: all yes, errs \
     0)\n";
  if not !all_square then failwith "snapshot isolation violated";
  if not !all_agree then
    failwith "histogram quantile disagrees with exact percentile"
