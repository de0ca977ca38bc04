(** The concurrent network server: the {!Serve} request loop over a Unix
    or TCP socket, N connections at a time against one shared {!Session}.

    Concurrency model — one domain pool of [connections + 1] workers:
    worker 0 accepts, the others each drive one connection's serve loop.
    The server gets its parallelism across connections, and every
    [ANSWER] / [BATCH] evaluates against a copy-on-write
    {!Session.freeze} snapshot, so writers on other connections never
    tear an answer set.

    Robustness:
    - {b Admission control} — at most [max_inflight] requests execute at
      once; excess requests are shed with an in-protocol
      [ERR class=overloaded] line (the connection stays open).  [QUIT] /
      [EXIT], [PING] and blank/comment lines are exempt, so clients can
      always leave and liveness probes answer even under saturation.  A full pending-connection queue (> [backlog]) sheds the
      whole connection the same way.
    - {b Timeouts} — [idle_timeout] closes a connection that sends nothing
      (after an [ERR class=budget resource=idle-seconds] line).  Each
      request runs under its own restart of the session budget
      ({!Serve.handle_line}), so the session's wall-clock allowance is
      per request.
    - {b Graceful shutdown} — {!request_stop} is async-signal-safe (one
      atomic write): the accept loop stops accepting, requests in flight
      finish, connections close, queued-but-unserved descriptors are
      dropped, telemetry is flushed, and {!run} returns the requested
      exit code.

    Fault sites: [serve.accept] sheds exactly one incoming connection
    (listener survives), [serve.connection] kills exactly one established
    connection (server keeps serving), [abox.snapshot] fails the freeze
    inside one request (in-protocol [ERR]). *)

type address = Unix_socket of string | Tcp of string * int

type t

val create :
  ?connections:int ->
  ?backlog:int ->
  ?max_inflight:int ->
  ?idle_timeout:float ->
  address ->
  Session.t ->
  t
(** Bind and listen immediately (clients may connect before {!run} starts
    accepting).  [connections] (default 4) concurrent connection workers;
    [backlog] (default 16) bounds the accepted-but-unclaimed queue;
    [max_inflight] (default [connections]) bounds concurrently executing
    requests; [idle_timeout] is in seconds (default: none).  [Tcp (host, 0)]
    binds an ephemeral port — read it back with {!address}.  Raises
    [Invalid_argument] on nonsensical bounds, and [Unix.Unix_error] when
    binding fails (stale socket file, port in use). *)

val run : ?on_drain:(unit -> unit) -> t -> int
(** Serve until {!request_stop}.  Installs the STATS hook (see
    {!stats_rows}), ignores [SIGPIPE] for the duration, then runs the
    accept loop and connection workers on an internal domain pool.
    Returns the exit code passed to {!request_stop} (0 for {!stop});
    the listener is closed and a Unix socket path unlinked on the way
    out.  [on_drain] runs after every connection worker has finished
    (no request in flight) and before the listener closes — the hook
    for a final durability checkpoint on graceful shutdown; an
    exception from it is reported to stderr but does not change the
    exit code.  Not reentrant. *)

val request_stop : t -> code:int -> unit
(** Begin graceful shutdown; {!run} will return [code] (the first call
    wins).  One atomic write — async-signal-safe, callable from a
    [Sys.signal] handler, another domain or a thread; the accept loop
    notices within one poll tick (0.1 s) and wakes the parked workers. *)

val stop : t -> unit
(** [request_stop ~code:0]. *)

val address : t -> address
(** The bound address, with an ephemeral TCP port resolved to its actual
    value. *)

val address_string : address -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"] — log/display form. *)

val session : t -> Session.t

val stats_rows : t -> Obda_obs.Exposition.row list
(** The server rows appended to [STATS] via {!Session.set_stats_hook}:
    [server.uptime-s], [server.connections.accepted] / [.active] /
    [.shed], [server.requests.served] / [.shed] / [.inflight],
    [server.snapshot.revisions] (the {!Session.frozen_span} as ["lo-hi"],
    or ["-"] before the first freeze), and [server.p50-ms] / [.p95-ms] /
    [.p99-ms] — quantiles of the one request-latency histogram that every
    connection worker records into, lock-free (see
    {!Obda_obs.Histogram}).  Accepted, shed and served counts are
    counters; the rest are gauges.  A connection shed by the
    [serve.accept] fault counts as accepted and shed. *)
