(** The newline-delimited request language of [obda serve].

    One request per line; verbs are case-insensitive, blank lines and
    [#]-comments are skipped:
    {v
      LOAD ONTOLOGY <file>
      LOAD DATA <file>
      PREPARE <name> [ALG <algorithm>] <query>
      ANSWER <name>
      BATCH <name> [<name> ...]
      ASSERT <fact> [<fact> ...]
      RETRACT <fact> [<fact> ...]
      STATS
      METRICS
      PING
      CHECKPOINT
      QUIT
    v}
    Queries and facts use the textual format of {!Obda_parse.Parse}. *)

module Omq := Obda_rewriting.Omq

type request =
  | Load_ontology of string
  | Load_data of string
  | Prepare of { name : string; algorithm : Omq.algorithm option; cq : string }
  | Answer of string
  | Batch of string list
      (** prepared query names, answered in one request, in order *)
  | Assert_facts of string  (** unparsed fact text, one or more facts *)
  | Retract_facts of string
  | Stats
  | Metrics
      (** Prometheus-style text exposition of counters, gauges and latency
          histograms — the feed of [obda top] *)
  | Ping
      (** liveness probe: [OK pong rev=<revision> uptime=<seconds>] —
          readiness polling for scripts and the [obda top] probe *)
  | Checkpoint
      (** force a durability checkpoint now; [ERR class=internal] when the
          server runs without [--data-dir] *)
  | Quit

val parse : string -> (request option, string) result
(** [Ok None] for blank/comment lines; [Error msg] for malformed
    requests.  Query and fact payloads are returned verbatim — parsing
    them (which can itself fail with located parse errors) happens at
    execution time. *)

val verb : request -> string
(** The canonical verb name, for telemetry span attributes. *)
