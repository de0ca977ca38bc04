(* The concurrent network server.

   One domain pool of [connections + 1] workers: worker 0 runs the accept
   loop, the rest pull accepted descriptors from a bounded queue and drive
   the serve loop over them.  The shared [Session] serialises mutation under
   its own lock; readers evaluate against copy-on-write [freeze] snapshots,
   so connections never block each other on evaluation.

   Shutdown is cooperative: [request_stop] only writes an atomic (safe from
   a signal handler), the accept loop polls it on a 0.1 s [select] tick and
   stops accepting, connection workers notice it between requests, finish
   the request in flight, and close.  Pending-but-unserved descriptors are
   closed unserved. *)

module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Pool = Obda_runtime.Pool
module Obs = Obda_obs.Obs
module Histogram = Obda_obs.Histogram
module Exposition = Obda_obs.Exposition

type address = Unix_socket of string | Tcp of string * int

type t = {
  session : Session.t;
  listener : Unix.file_descr;
  unlink : string option; (* unix-socket path to remove on close *)
  connections : int;
  backlog : int;
  max_inflight : int;
  idle_timeout : float option;
  stop_code : int Atomic.t; (* -1 while running; exit code once stopped *)
  m : Mutex.t;
  cv : Condition.t;
  pending : Unix.file_descr Queue.t;
  mutable accepted : int;
  mutable active : int;
  mutable inflight : int;
  mutable served : int;
  mutable shed_requests : int;
  mutable shed_connections : int;
  mutable started : float;
  mutable conn_seq : int; (* connection ids, 1-based *)
  latency : Histogram.t;
      (* request latencies (seconds), recorded lock-free by every
         connection worker *)
}

let tick = 0.1

(* ------------------------------------------------------------------ *)
(* Low-level I/O.  SIGPIPE is ignored while the server runs, so writes to
   a hung-up peer raise [EPIPE]; the per-connection handler treats any
   [Unix_error] as the end of that connection. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_lines fd lines =
  write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(* Best-effort single line (shed paths): the peer may already be gone. *)
let send_line_opt fd line = try send_lines fd [ line ] with _ -> ()

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* ------------------------------------------------------------------ *)
(* Construction *)

let stopping t = Atomic.get t.stop_code >= 0

let create ?(connections = 4) ?(backlog = 16) ?max_inflight ?idle_timeout
    address session =
  if connections < 1 then invalid_arg "Server.create: connections < 1";
  if backlog < 1 then invalid_arg "Server.create: backlog < 1";
  let max_inflight = Option.value max_inflight ~default:connections in
  if max_inflight < 0 then invalid_arg "Server.create: max_inflight < 0";
  let listener, unlink =
    match address with
    | Unix_socket path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      (fd, Some path)
    | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try
         let addr =
           try Unix.inet_addr_of_string host
           with _ -> (
             match Unix.gethostbyname host with
             | { Unix.h_addr_list = [||]; _ } ->
               Error.internal "cannot resolve host %S" host
             | { Unix.h_addr_list; _ } -> h_addr_list.(0))
         in
         Unix.bind fd (Unix.ADDR_INET (addr, port))
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      (fd, None)
  in
  Unix.listen listener (max backlog 16);
  {
    session;
    listener;
    unlink;
    connections;
    backlog;
    max_inflight;
    idle_timeout;
    stop_code = Atomic.make (-1);
    m = Mutex.create ();
    cv = Condition.create ();
    pending = Queue.create ();
    accepted = 0;
    active = 0;
    inflight = 0;
    served = 0;
    shed_requests = 0;
    shed_connections = 0;
    started = Unix.gettimeofday ();
    conn_seq = 0;
    latency = Histogram.create ~scale:1e9 "server.request.latency";
  }

let address t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_UNIX path -> Unix_socket path
  | Unix.ADDR_INET (host, port) -> Tcp (Unix.string_of_inet_addr host, port)

let address_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let session t = t.session

(* One atomic write, nothing else: safe from a signal handler even when
   the interrupted code holds the server mutex.  The accept loop notices
   on its next select tick and broadcasts to the parked workers. *)
let request_stop t ~code =
  ignore (Atomic.compare_and_set t.stop_code (-1) code)

let stop t = request_stop t ~code:0

(* ------------------------------------------------------------------ *)
(* Stats rows (appended to the session's STATS response via the hook) *)

let stats_rows t =
  let revisions = Session.frozen_span t.session in
  let snap = Histogram.snapshot t.latency in
  let quantile_ms q =
    Exposition.Float
      { value = Histogram.quantile snap q *. 1000.; decimals = 3 }
  in
  Mutex.lock t.m;
  let rows =
    Exposition.
      [
        Gauge
          ( "server.uptime-s",
            Float { value = Unix.gettimeofday () -. t.started; decimals = 1 } );
        Counter ("server.connections.accepted", t.accepted);
        Gauge ("server.connections.active", Int t.active);
        Counter ("server.connections.shed", t.shed_connections);
        Counter ("server.requests.served", t.served);
        Counter ("server.requests.shed", t.shed_requests);
        Gauge ("server.requests.inflight", Int t.inflight);
        Gauge ("server.snapshot.revisions", Span revisions);
        Gauge ("server.p50-ms", quantile_ms 0.50);
        Gauge ("server.p95-ms", quantile_ms 0.95);
        Gauge ("server.p99-ms", quantile_ms 0.99);
      ]
  in
  Mutex.unlock t.m;
  rows

(* ------------------------------------------------------------------ *)
(* Admission control: a bounded budget of requests being executed.  The
   check-and-increment is one lock acquisition, so the budget can never be
   oversubscribed; QUIT/EXIT (and blank/comment lines) are exempt, so a
   client can always leave an overloaded server cleanly. *)

(* [Ok ()] when admitted; [Error inflight] with the observed in-flight
   count when shed, so the overload diagnostic reports what was actually
   seen rather than echoing the limit. *)
let try_admit t =
  Mutex.lock t.m;
  let inflight = t.inflight in
  let ok = inflight < t.max_inflight in
  if ok then t.inflight <- t.inflight + 1
  else t.shed_requests <- t.shed_requests + 1;
  Mutex.unlock t.m;
  if ok then Ok () else Error inflight

let release t =
  Mutex.lock t.m;
  t.inflight <- t.inflight - 1;
  t.served <- t.served + 1;
  Mutex.unlock t.m

let admission_exempt line =
  let line = String.trim line in
  line = ""
  || line.[0] = '#'
  ||
  let verb =
    match String.index_opt line ' ' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match String.uppercase_ascii verb with
  (* PING too: a liveness probe must answer even on an overloaded server —
     that is what distinguishes "alive but saturated" from "dead" *)
  | "QUIT" | "EXIT" | "PING" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-connection buffered reader with idle-timeout and stop polling *)

type conn = {
  fd : Unix.file_descr;
  id : int; (* 1-based connection id, tagged onto access-log lines *)
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable at_eof : bool;
}

(* Pop one complete line off the buffer, keeping the remainder. *)
let extract_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
    Some (strip_cr (String.sub s 0 i))

(* Next input line.  [`Line _] may also be a final unterminated fragment:
   a stream that ends mid-line still hands the fragment to the serve loop,
   then the following call reports [`Eof] — truncated scripts end the
   session cleanly, exactly like a missing QUIT. *)
let read_line t c =
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) t.idle_timeout
  in
  let rec loop () =
    if stopping t then `Stopped
    else
      match extract_line c with
      | Some line -> `Line line
      | None ->
        if c.at_eof then
          if Buffer.length c.buf > 0 then begin
            let line = strip_cr (Buffer.contents c.buf) in
            Buffer.clear c.buf;
            `Line line
          end
          else `Eof
        else if
          match deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false
        then `Idle
        else begin
          (match Unix.select [ c.fd ] [] [] tick with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ ->
            let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
            if n = 0 then c.at_eof <- true
            else Buffer.add_subbytes c.buf c.chunk 0 n);
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection handling *)

let handle_request t c line =
  if admission_exempt line then begin
    let lines, stop = Serve.handle_line ~conn:c.id t.session line in
    send_lines c.fd lines;
    stop
  end
  else
    match try_admit t with
    | Error inflight ->
      send_lines c.fd
        [
          Printf.sprintf "ERR class=overloaded inflight=%d limit=%d" inflight
            t.max_inflight;
        ];
      false
    | Ok () ->
      Fun.protect
        ~finally:(fun () -> release t)
        (fun () ->
          (* server-side request latency: execution plus the response
             write, as this connection observed it *)
          let t0 = Unix.gettimeofday () in
          let lines, stop = Serve.handle_line ~conn:c.id t.session line in
          send_lines c.fd lines;
          Histogram.record t.latency (Unix.gettimeofday () -. t0);
          stop)

let handle_connection t fd =
  Mutex.lock t.m;
  t.active <- t.active + 1;
  t.conn_seq <- t.conn_seq + 1;
  let id = t.conn_seq in
  Mutex.unlock t.m;
  let c =
    { fd; id; buf = Buffer.create 256; chunk = Bytes.create 4096; at_eof = false }
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      Mutex.lock t.m;
      t.active <- t.active - 1;
      Mutex.unlock t.m)
    (fun () ->
      try
        (* [serve.connection] kills exactly this connection: the raise is
           caught below, the descriptor closes, the server keeps serving. *)
        Fault.hit Fault.serve_connection;
        let rec loop () =
          match read_line t c with
          | `Eof | `Stopped -> ()
          | `Idle ->
            send_line_opt fd
              (Printf.sprintf "ERR class=budget resource=idle-seconds used=%g limit=%g"
                 (Option.get t.idle_timeout) (Option.get t.idle_timeout))
          | `Line line -> if not (handle_request t c line) then loop ()
        in
        loop ()
      with
      | Error.Obda_error e -> send_line_opt fd ("ERR " ^ Error.to_string e)
      | Unix.Unix_error _ | Sys_error _ ->
        (* peer hung up mid-write (EPIPE/ECONNRESET): just drop it *)
        ())

(* ------------------------------------------------------------------ *)
(* Accept loop (worker 0) and connection workers *)

let enqueue t fd =
  Mutex.lock t.m;
  t.accepted <- t.accepted + 1;
  let pending = Queue.length t.pending in
  let room = pending < t.backlog in
  if room then begin
    Queue.push fd t.pending;
    Condition.signal t.cv
  end
  else t.shed_connections <- t.shed_connections + 1;
  Mutex.unlock t.m;
  if not room then begin
    send_line_opt fd
      (Printf.sprintf "ERR class=overloaded pending=%d backlog=%d" pending
         t.backlog);
    try Unix.close fd with _ -> ()
  end

let shed_faulted t fd e =
  Mutex.lock t.m;
  t.accepted <- t.accepted + 1;
  t.shed_connections <- t.shed_connections + 1;
  Mutex.unlock t.m;
  send_line_opt fd ("ERR " ^ Error.to_string e);
  (try Unix.close fd with _ -> ())

let accept_loop t =
  let rec loop () =
    if stopping t then ()
    else begin
      (match Unix.select [ t.listener ] [] [] tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true t.listener with
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          ()
        | fd, _ -> (
          (* [serve.accept] sheds exactly this connection — the listener
             itself survives and keeps accepting. *)
          match Fault.hit Fault.serve_accept with
          | () -> enqueue t fd
          | exception Error.Obda_error e -> shed_faulted t fd e)));
      loop ()
    end
  in
  (* An accept-loop failure must not strand parked workers: whether the
     loop stopped cleanly or raised (e.g. EMFILE on accept), wake every
     parked worker so they observe the stop and drain — the broadcast runs
     before any exception propagates to [Pool.run]. *)
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      Condition.broadcast t.cv;
      Mutex.unlock t.m)
    (fun () ->
      try loop ()
      with e ->
        request_stop t ~code:1;
        raise e)

(* Next accepted descriptor, or [None] once stopping.  On stop, queued
   descriptors are closed unserved — only requests already executing
   drain. *)
let dequeue t =
  Mutex.lock t.m;
  let rec wait () =
    if stopping t then None
    else if not (Queue.is_empty t.pending) then Some (Queue.pop t.pending)
    else begin
      Condition.wait t.cv t.m;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock t.m;
  r

let worker_loop t =
  let rec loop () =
    match dequeue t with
    | None -> ()
    | Some fd ->
      handle_connection t fd;
      loop ()
  in
  loop ()

let drain_pending t =
  Mutex.lock t.m;
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] t.pending in
  Queue.clear t.pending;
  Mutex.unlock t.m;
  List.iter (fun fd -> try Unix.close fd with _ -> ()) fds

let close t =
  (try Unix.close t.listener with _ -> ());
  match t.unlink with
  | Some path -> ( try Unix.unlink path with _ -> ())
  | None -> ()

let run ?on_drain t =
  t.started <- Unix.gettimeofday ();
  Session.set_stats_hook t.session (fun () -> stats_rows t);
  (* The serving path always measures: per-verb registry histograms and
     the STATS latency quantiles are part of the server surface. *)
  let prev_recording = Histogram.recording () in
  Histogram.set_enabled true;
  (* Writes to a hung-up peer must raise EPIPE, not kill the process. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let pool = Pool.create ~jobs:(t.connections + 1) in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      drain_pending t;
      (* the drain hook runs once every connection worker has finished —
         no request is in flight — and before the listener closes: the
         durability checkpoint on SIGTERM.  Its failure must not turn a
         graceful drain into a crash; the WAL still holds every record. *)
      (match on_drain with
      | Some f -> (
        try f ()
        with e ->
          Printf.eprintf "obda: drain hook failed: %s\n%!"
            (Printexc.to_string e))
      | None -> ());
      close t;
      (match prev_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ());
      Histogram.set_enabled prev_recording;
      Obs.flush ())
    (fun () ->
      Pool.run pool (fun w -> if w = 0 then accept_loop t else worker_loop t));
  match Atomic.get t.stop_code with -1 | 0 -> 0 | code -> code
