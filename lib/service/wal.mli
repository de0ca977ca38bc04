(** Write-ahead log + checkpoints: durability for [obda serve].

    A session opened with a data dir appends every {e effective} mutation
    ([ASSERT]/[RETRACT] of facts that actually changed the store,
    [LOAD ONTOLOGY]/[LOAD DATA]) to [<dir>/wal.log] {e before} the client
    sees its [OK] line.  Each record is framed as
    [u32le length · u32le CRC32(payload) · payload], where the payload is
    a [<op> seq=<n> rev=<r>] header line followed by the mutation's
    content in the ordinary textual formats (LOAD records inline the full
    serialized content, never a file path).  [seq] is the log's own
    monotone sequence number — unlike {!Obda_data.Abox.revision}, which
    resets when [LOAD DATA] installs a fresh store — and [rev] is the
    post-mutation revision, kept for diagnostics.

    A {e checkpoint} serializes the whole session state — ontology text,
    canonical ABox blob ({!Obda_data.Abox.serialize}) and the
    prepared-query registry — to [<dir>/checkpoint.<seq>] (written to a
    temp file, fsynced, renamed), retires older checkpoints and truncates
    the log.  {e Recovery} restores the newest valid checkpoint and
    replays the log tail, skipping records at or below the checkpoint's
    sequence number.  A torn final record (a crash mid-append) is
    truncated with a warning — the server never refuses to start over it —
    while a corrupt {e interior} record raises a typed
    [Obda_error (Internal _)]: bytes that were once acknowledged and then
    damaged must not be silently dropped.

    Fault sites: [wal.append] guards every record append, [wal.sync]
    every fsync, [wal.recover] the recovery entry point.  Metrics: the
    {!stats_rows} of a live log, and the [serve.wal.sync.latency]
    histogram.

    Appends and checkpoints must be externally serialised — the session
    drives both from under its lock, making log order mutation order —
    and {!recover} runs single-threaded at startup; the module has no
    internal lock. *)

module Omq := Obda_rewriting.Omq

val crc32 : string -> int
(** IEEE CRC32 (the zlib/PNG polynomial), table-driven.  Exposed for the
    format tests. *)

(** {1 Sync policy} *)

type sync_policy =
  | Always  (** fsync after every appended record *)
  | Interval of float
      (** fsync at most once per window (seconds): an append syncs only
          when the window since the last sync has elapsed *)
  | Never  (** leave syncing to the OS (and {!close}/{!checkpoint}) *)

val sync_policy_of_string : string -> (sync_policy, string) result
(** The [--durability] spellings: ["always"], ["never"], ["interval:MS"]
    (milliseconds, converted to seconds). *)

val sync_policy_to_string : sync_policy -> string

(** {1 Mutations} *)

type mutation =
  | Assert of Obda_data.Abox.fact list  (** the effectively-added facts *)
  | Retract of Obda_data.Abox.fact list  (** the effectively-removed facts *)
  | Load_ontology of Obda_ontology.Tbox.t
  | Load_data of Obda_data.Abox.t

(** {1 Recovery} *)

type recovered = {
  checkpoint_seq : int option;
      (** sequence number of the restored checkpoint, if any *)
  replayed : int;  (** WAL records applied on top of it *)
  skipped : int;  (** records at or below the checkpoint's sequence *)
  torn_bytes : int;  (** trailing bytes of a torn final record *)
  warnings : string list;
  last_seq : int;  (** highest sequence number observed *)
  tbox : Obda_ontology.Tbox.t option;
  abox : Obda_data.Abox.t;
  prepared : (string * Omq.algorithm * string) list;
      (** prepared-query registry as (name, algorithm, query text) *)
}

val recover : ?repair:bool -> string -> recovered
(** Restore the newest valid checkpoint in the dir and replay the WAL
    tail.  Invalid checkpoint files are skipped (with a warning) in
    favour of older ones; if checkpoints exist but none is valid, or an
    interior WAL record is corrupt, raises a typed
    [Obda_error (Internal _)].  With [repair] (default [false]) a torn
    final record is physically truncated from the log; without it the
    tear is only reported — the dry-run mode of [obda recover].  A
    missing or empty dir recovers to the empty state.  Guarded by the
    [wal.recover] fault site. *)

(** {1 The live log} *)

type t

val open_ : ?policy:sync_policy -> ?checkpoint_every:int -> string -> t * recovered
(** Create the dir if needed, run {!recover}[ ~repair:true], and open the
    log for appending.  [policy] defaults to [Always];
    [checkpoint_every n] arms {!due_checkpoint} after [n] records
    (raises [Invalid_argument] when [n < 1]).  The returned {!recovered}
    state is the caller's to install into its session {e before} hooking
    the session's mutations to {!append}. *)

val append : t -> mutation -> revision:int -> unit
(** Frame and append one record (next sequence number, tagged with the
    post-mutation [revision]), then sync per the policy.  Guarded by the
    [wal.append] (and, when syncing, [wal.sync]) fault sites; called
    under the session lock {e before} the mutation's [OK] is sent, so a
    raise here surfaces as the request's [ERR] and the mutation is never
    acknowledged.  A failed {e sync} rolls the freshly written record
    back (truncate to the pre-append length), keeping recovery exactly
    the acknowledged prefix.  After a failed write — or a failed
    rollback — the log marks itself broken and refuses further appends:
    a partial frame buried under later records would turn a recoverable
    torn tail into fatal interior corruption. *)

val sync : t -> unit
(** Force an fsync of any unsynced appends (no-op when clean). *)

val due_checkpoint : t -> bool
(** Whether [checkpoint_every] records have accumulated since the last
    checkpoint (or recovery). *)

val checkpoint :
  t ->
  tbox:Obda_ontology.Tbox.t option ->
  abox:Obda_data.Abox.t ->
  prepared:(string * Omq.algorithm * string) list ->
  int
(** Write a checkpoint of the given state, retire older checkpoint files
    and truncate the log; returns the covered sequence number.  The
    caller must hold the session lock (no append may interleave between
    capturing the state and truncating the log). *)

val close : t -> unit
(** Final sync (best-effort) and close. *)

val dir : t -> string
val policy : t -> sync_policy

val last_seq : t -> int
(** Highest sequence number assigned so far. *)

val stats_rows : t -> Obda_obs.Exposition.row list
(** The [server.wal.*] STATS rows: the sequence number (a gauge), records
    and bytes appended, fsyncs and checkpoints written (counters), and the
    records replayed at open (a gauge; [obda recover] prints it too). *)
