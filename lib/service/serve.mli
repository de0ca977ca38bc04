(** The serve loop: execute {!Protocol} requests against a {!Session}.

    Responses are newline-delimited: every request yields one [OK ...]
    status line (possibly followed by payload lines — answer tuples,
    stats) or a single [ERR class=... ...] line rendering the typed error
    that aborted it.  Errors are in-protocol: a failed request, including
    a budget-exhausted one, leaves the session alive.

    [ANSWER] and [BATCH] evaluate against a {!Session.freeze} snapshot —
    one frozen ABox revision per request — so concurrent [ASSERT]/
    [RETRACT]/[LOAD] traffic on other connections can never tear an
    answer set.  [ASSERT]/[RETRACT] apply all facts of the request
    atomically under the session lock.

    [BATCH] answers several prepared queries in one request, one after
    another in request order, each through {!Session.answer_at} on the
    one snapshot (so on its prepared plan, as [ANSWER] is) and under its
    own [Budget.sub] of the request budget.  Every name is resolved
    before anything is evaluated, the response interleaves one
    [OK name=... answers=N] (or [boolean=...]) header with its tuples per
    query in request order, and the first failing query fails the whole
    request.

    [STATS] prints the session's {!Session.stats} rows, one ["name value"]
    line each; [METRICS] renders the same rows, and the histogram
    registry, as {!Obda_obs.Exposition.render} text. *)

val handle_line : ?conn:int -> Session.t -> string -> string list * bool
(** Parse and execute one input line under a [service.request] telemetry
    span (with [verb] and monotonically assigned [request] id attributes),
    mapping errors to [ERR] lines.  The request runs under
    {!Obda_runtime.Budget.restart} of the session budget: the session's
    whole step, size and wall-clock allowance, counted from the request's
    start.  The network server passes its connection id as [conn] (0
    otherwise — it tags access-log lines).  When
    {!Obda_obs.Histogram.recording} is armed, the request is timed into
    the per-verb registry histograms ([serve.answer.latency],
    [serve.batch.latency], [serve.mutate.latency]); the tuple count of
    every answered non-boolean [ANSWER] goes into [serve.answer.count],
    and the byte size of every response, [ERR] lines included, into
    [serve.response.bytes]; [BATCH] additionally times each query into
    [serve.batch.query.latency].  The boolean is [true] when the loop
    should stop ([QUIT]).  Blank and comment lines yield no response. *)

(** {1 Access log} *)

val set_access_log : ?slow_ms:float -> (string -> unit) -> unit
(** Enable the structured access log: one JSON line per parsed request is
    passed (without trailing newline) to the writer —
    [{"type":"access","id":...,"conn":...,"verb":"ANSWER","revision":...,
    "outcome":"ok","duration_ms":...,"cache":"hit"}] ([outcome] is the
    error class for failed requests; [cache] appears on [PREPARE]
    responses).  With [slow_ms], a request at least that slow writes a
    second [{"type":"slow",...}] line carrying its span tree, rooted at
    its [service.request] span: a slow-query sink is
    {!Obda_obs.Obs.tap}ped beside any installed telemetry sink (which
    keeps every span), and each domain buffers the spans of the request
    it serves.  Writes are serialised under an internal mutex, so
    concurrent connections never interleave lines.  Process-wide; last
    call wins.  A failed write — full disk, closed pipe — never fails the
    request, the connection or the server: it increments the
    [serve.access_log.errors] telemetry counter and clears the log. *)

val clear_access_log : unit -> unit
(** Disable the access log, restoring the telemetry sinks from before
    {!set_access_log}. *)

(** {1 Durability} *)

val attach_wal : Session.t -> Wal.t -> unit
(** {!Session.attach_wal}: the session logs its mutations to the WAL, and
    the [CHECKPOINT] verb and the [--checkpoint-every] trigger checkpoint
    that session's state into it.  Each session has its own WAL. *)

val detach_wal : Session.t -> unit
(** {!Session.detach_wal}. *)

val checkpoint_now : Session.t -> Wal.t -> int
(** {!Session.checkpoint}. *)

val run :
  Session.t ->
  input:(unit -> string option) ->
  output:(string -> unit) -> unit
(** Drive {!handle_line} until [input] returns [None] or a [QUIT] is
    executed. *)

val run_channels : Session.t -> in_channel -> out_channel -> unit
(** {!run} over channels, flushing after every response line — the
    engine of [obda serve].  A trailing ['\r'] is stripped from every
    input line, so CRLF clients and CRLF script fixtures are accepted. *)
