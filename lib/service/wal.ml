(* Write-ahead log + checkpoints: the durability layer behind
   [obda serve --data-dir].

   Every effective mutation is appended as one CRC32-framed record before
   the client sees its OK line; a checkpoint serializes the full session
   state (ontology text, canonical ABox blob, prepared-query registry) to
   [checkpoint.<seq>] and truncates the log.  Recovery restores the newest
   valid checkpoint and replays the log tail, truncating a torn final
   record (a crash mid-append is normal operation) but refusing corrupt
   interior records (bytes that were once acknowledged and then rotted are
   not silently droppable).

   Concurrency: appends and checkpoints are driven from under the session
   lock (the mutation hook and [Serve]'s checkpoint path both hold it), so
   this module needs no lock of its own — log order is mutation order, and
   a checkpoint can never race an append.  [recover] runs single-threaded
   at startup. *)

module Abox = Obda_data.Abox
module Tbox = Obda_ontology.Tbox
module Omq = Obda_rewriting.Omq
module Parse = Obda_parse.Parse
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Exposition = Obda_obs.Exposition
module Histogram = Obda_obs.Histogram

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — table-driven,
   self-contained: the toolchain has no checksum library and the format
   must not depend on one. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Sync policy *)

type sync_policy = Always | Interval of float | Never

let sync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
    let ms = String.sub s 9 (String.length s - 9) in
    match float_of_string_opt ms with
    | Some ms when ms > 0. -> Ok (Interval (ms /. 1000.))
    | _ -> Error (Printf.sprintf "bad sync interval %S (want interval:MS)" ms))
  | _ ->
    Error
      (Printf.sprintf "unknown durability policy %S (always|interval:MS|never)"
         s)

let sync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" (s *. 1000.)

(* ------------------------------------------------------------------ *)
(* Record payloads.

   A payload is a one-line header [<op> seq=<n> rev=<r>] followed by the
   mutation's content in the ordinary textual data/ontology format, so a
   WAL is inspectable with [od]/[less] and replay reuses the battle-tested
   parsers.  LOAD records inline the full serialized content — never the
   file path the client named, which may change or vanish. *)

type mutation =
  | Assert of Abox.fact list
  | Retract of Abox.fact list
  | Load_ontology of Tbox.t
  | Load_data of Abox.t

let op_name = function
  | Assert _ -> "assert"
  | Retract _ -> "retract"
  | Load_ontology _ -> "load-ontology"
  | Load_data _ -> "load-data"

let mutation_body = function
  | Assert facts | Retract facts -> Parse.facts_to_string facts
  | Load_ontology tbox -> Parse.ontology_to_string tbox
  | Load_data abox -> Parse.data_to_string abox

let encode_payload ~seq ~revision mutation =
  Printf.sprintf "%s seq=%d rev=%d\n%s" (op_name mutation) seq revision
    (mutation_body mutation)

type record = { rseq : int; rrev : int; rop : string; rbody : string }

let decode_payload ~offset payload =
  let header, body =
    match String.index_opt payload '\n' with
    | Some i ->
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )
    | None -> (payload, "")
  in
  let int_field key tokens =
    let prefix = key ^ "=" in
    List.find_map
      (fun tok ->
        if String.starts_with ~prefix tok then
          int_of_string_opt
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        else None)
      tokens
  in
  match String.split_on_char ' ' header with
  | op :: fields -> (
    match (int_field "seq" fields, int_field "rev" fields) with
    | Some rseq, Some rrev -> { rseq; rrev; rop = op; rbody = body }
    | _ ->
      Error.internal "WAL record at offset %d has a malformed header %S" offset
        header)
  | [] -> Error.internal "WAL record at offset %d is empty" offset

(* ------------------------------------------------------------------ *)
(* Binary framing: u32le payload length, u32le CRC32(payload), payload. *)

let frame_header_bytes = 8

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let get_u32 s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let frame payload =
  let buf = Buffer.create (String.length payload + frame_header_bytes) in
  put_u32 buf (String.length payload);
  put_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* File helpers *)

let wal_file dir = Filename.concat dir "wal.log"
let checkpoint_prefix = "checkpoint."
let checkpoint_file dir seq = Filename.concat dir (checkpoint_prefix ^ string_of_int seq)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

(* Directory entry durability for renames/creates (best-effort: some
   filesystems refuse fsync on a directory fd). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let mkdir_p dir =
  let rec go dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
    then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Checkpoint files present in [dir], newest (highest covered seq) first. *)
let checkpoints dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           if String.starts_with ~prefix:checkpoint_prefix name then
             Option.map
               (fun seq -> (seq, Filename.concat dir name))
               (int_of_string_opt
                  (String.sub name
                     (String.length checkpoint_prefix)
                     (String.length name - String.length checkpoint_prefix)))
           else None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

(* ------------------------------------------------------------------ *)
(* Checkpoint format: magic "OBCK" + version byte, u32 covered seq, one
   optional ontology section, the ABox blob, the prepared registry
   (name \t algorithm \t query text), and a trailing whole-file CRC32. *)

let ckpt_magic = "OBCK"
let ckpt_version = 1

(* The machine spelling accepted by [Omq.algorithm_of_string] — the
   display form ([Omq.algorithm_name], e.g. "Clipper*(UCQ)") does not
   round-trip. *)
let algorithm_token = function
  | Omq.Tw -> "tw"
  | Omq.Lin -> "lin"
  | Omq.Log -> "log"
  | Omq.Ucq -> "ucq"
  | Omq.Ucq_condensed -> "ucq-condensed"
  | Omq.Presto_like -> "presto"

let encode_checkpoint ~seq ~tbox ~abox ~prepared =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ckpt_magic;
  Buffer.add_char buf (Char.chr ckpt_version);
  put_u32 buf seq;
  (match tbox with
  | None -> Buffer.add_char buf '\000'
  | Some tbox ->
    Buffer.add_char buf '\001';
    let text = Parse.ontology_to_string tbox in
    put_u32 buf (String.length text);
    Buffer.add_string buf text);
  let blob = Abox.serialize abox in
  put_u32 buf (String.length blob);
  Buffer.add_string buf blob;
  put_u32 buf (List.length prepared);
  List.iter
    (fun (name, algorithm, cq) ->
      let entry =
        String.concat "\t" [ name; algorithm_token algorithm; cq ]
      in
      put_u32 buf (String.length entry);
      Buffer.add_string buf entry)
    prepared;
  let body = Buffer.contents buf in
  let crc = Buffer.create 4 in
  put_u32 crc (crc32 body);
  body ^ Buffer.contents crc

exception Invalid_checkpoint of string

let invalid_ckpt fmt = Printf.ksprintf (fun m -> raise (Invalid_checkpoint m)) fmt

(* [seq, tbox option, abox, prepared triples].  Raises [Invalid_checkpoint]
   on any structural or checksum defect. *)
let decode_checkpoint s =
  let n = String.length s in
  let header = String.length ckpt_magic + 1 in
  if n < header + 8 then invalid_ckpt "file too short (%d bytes)" n;
  if String.sub s 0 (String.length ckpt_magic) <> ckpt_magic then
    invalid_ckpt "bad magic";
  if Char.code s.[String.length ckpt_magic] <> ckpt_version then
    invalid_ckpt "unsupported version %d" (Char.code s.[String.length ckpt_magic]);
  let body = String.sub s 0 (n - 4) in
  let stored_crc = get_u32 s (n - 4) in
  if crc32 body <> stored_crc then
    invalid_ckpt "checksum mismatch (stored %08x, computed %08x)" stored_crc
      (crc32 body);
  let pos = ref header in
  let need k what =
    if !pos + k > n - 4 then invalid_ckpt "truncated %s section" what
  in
  let u32 what =
    need 4 what;
    let v = get_u32 s !pos in
    pos := !pos + 4;
    v
  in
  let str len what =
    need len what;
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  let seq = u32 "seq" in
  need 1 "ontology flag";
  let has_ontology = s.[!pos] <> '\000' in
  incr pos;
  let tbox =
    if has_ontology then
      Some (Parse.ontology_of_string (str (u32 "ontology") "ontology"))
    else None
  in
  let abox =
    let blob = str (u32 "data") "data" in
    try Abox.deserialize blob
    with Abox.Corrupt msg -> invalid_ckpt "ABox blob: %s" msg
  in
  let n_prepared = u32 "prepared count" in
  let prepared =
    List.init n_prepared (fun i ->
        let entry = str (u32 "prepared entry") "prepared entry" in
        match String.split_on_char '\t' entry with
        | name :: alg :: rest when rest <> [] -> (
          match Omq.algorithm_of_string alg with
          | Some algorithm -> (name, algorithm, String.concat "\t" rest)
          | None -> invalid_ckpt "prepared entry %d: unknown algorithm %S" i alg)
        | _ -> invalid_ckpt "prepared entry %d is malformed" i)
  in
  if !pos <> n - 4 then invalid_ckpt "trailing garbage";
  (seq, tbox, abox, prepared)

(* ------------------------------------------------------------------ *)
(* Recovery *)

type recovered = {
  checkpoint_seq : int option;
  replayed : int;
  skipped : int;
  torn_bytes : int;
  warnings : string list;
  last_seq : int;
  tbox : Tbox.t option;
  abox : Abox.t;
  prepared : (string * Omq.algorithm * string) list;
}

(* Scan the framed log: complete records up to the first defect.  A defect
   whose record extends to (or past) end-of-file is a torn tail — the
   expected debris of a crash mid-append; anything corrupt with further
   bytes behind it was durable once and is a hard error. *)
let scan_wal path =
  if not (Sys.file_exists path) then ([], 0, 0)
  else begin
    let s = read_file path in
    let n = String.length s in
    let rec go offset acc =
      if offset = n then (List.rev acc, offset, 0)
      else if n - offset < frame_header_bytes then
        (List.rev acc, offset, n - offset)
      else begin
        let plen = get_u32 s offset in
        let stored_crc = get_u32 s (offset + 4) in
        if plen > n - offset - frame_header_bytes then
          (List.rev acc, offset, n - offset)
        else begin
          let payload = String.sub s (offset + frame_header_bytes) plen in
          let next = offset + frame_header_bytes + plen in
          if crc32 payload <> stored_crc then
            if next = n then (List.rev acc, offset, n - offset)
            else
              Error.internal
                "corrupt WAL: record at offset %d fails its checksum with %d \
                 bytes following it (stored %08x, computed %08x) — refusing \
                 to replay past acknowledged-then-damaged data"
                offset (n - next) stored_crc (crc32 payload)
          else go next ((offset, payload) :: acc)
        end
      end
    in
    go 0 []
  end

let apply_record state record =
  let tbox, abox, prepared = !state in
  match record.rop with
  | "assert" ->
    List.iter (Abox.add_fact abox) (Parse.facts_of_string record.rbody)
  | "retract" ->
    List.iter
      (fun f -> ignore (Abox.remove_fact abox f))
      (Parse.facts_of_string record.rbody)
  | "load-ontology" ->
    (* a reload drops the prepared registry, exactly like the live path *)
    state := (Some (Parse.ontology_of_string record.rbody), abox, [])
  | "load-data" -> state := (tbox, Parse.data_of_string record.rbody, prepared)
  | op -> Error.internal "WAL record has unknown operation %S" op

let recover ?(repair = false) dir =
  Fault.hit Fault.wal_recover;
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  (* newest valid checkpoint; invalid ones are skipped with a warning *)
  let rec restore = function
    | [] -> (None, (None, Abox.create (), []))
    | (seq, path) :: older -> (
      match decode_checkpoint (read_file path) with
      | stored_seq, tbox, abox, prepared ->
        if stored_seq <> seq then
          warn "checkpoint %s claims seq %d (named %d)" path stored_seq seq;
        (Some seq, (tbox, abox, prepared))
      | exception Invalid_checkpoint msg ->
        warn "skipping invalid checkpoint %s: %s" path msg;
        restore older
      | exception Sys_error msg ->
        warn "skipping unreadable checkpoint %s: %s" path msg;
        restore older)
  in
  let all = checkpoints dir in
  let checkpoint_seq, (tbox, abox, prepared) = restore all in
  if all <> [] && checkpoint_seq = None then
    Error.internal
      "data dir %s has %d checkpoint file(s) but none is valid — refusing \
       to silently restart empty"
      dir (List.length all);
  let records, valid_end, torn_bytes = scan_wal (wal_file dir) in
  if torn_bytes > 0 then
    warn
      "WAL tail torn at offset %d: dropping %d trailing byte(s) of an \
       unacknowledged record"
      valid_end torn_bytes;
  let floor = Option.value checkpoint_seq ~default:0 in
  let state = ref (tbox, abox, prepared) in
  let replayed = ref 0 and skipped = ref 0 and last_seq = ref floor in
  List.iter
    (fun (offset, payload) ->
      let record = decode_payload ~offset payload in
      last_seq := max !last_seq record.rseq;
      if record.rseq <= floor then incr skipped
      else begin
        apply_record state record;
        incr replayed
      end)
    records;
  if repair && torn_bytes > 0 then begin
    let fd = Unix.openfile (wal_file dir) [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.ftruncate fd valid_end;
        Unix.fsync fd)
  end;
  let tbox, abox, prepared = !state in
  {
    checkpoint_seq;
    replayed = !replayed;
    skipped = !skipped;
    torn_bytes;
    warnings = List.rev !warnings;
    last_seq = !last_seq;
    tbox;
    abox;
    prepared;
  }

(* ------------------------------------------------------------------ *)
(* The live log *)

type t = {
  dir : string;
  policy : sync_policy;
  checkpoint_every : int option;
  fd : Unix.file_descr;
  mutable seq : int;
  mutable ckpt_seq : int;  (* highest seq covered by a checkpoint *)
  mutable since_checkpoint : int;
  mutable last_sync : float;
  mutable dirty : bool;
  mutable broken : bool;
      (* a failed append may have left a partial frame: further appends
         would bury it under valid records and turn a recoverable torn
         tail into fatal interior corruption — so the log refuses them *)
  mutable appended : int;
  mutable synced : int;
  mutable bytes : int;
  mutable checkpoints_written : int;
  mutable replayed_at_open : int;
}

let h_sync = Histogram.registered ~scale:1e9 "serve.wal.sync.latency"

let open_ ?(policy = Always) ?checkpoint_every dir =
  (match checkpoint_every with
  | Some n when n < 1 -> invalid_arg "Wal.open_: checkpoint_every < 1"
  | _ -> ());
  mkdir_p dir;
  let recovered = recover ~repair:true dir in
  let fd =
    Unix.openfile (wal_file dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  ( {
      dir;
      policy;
      checkpoint_every;
      fd;
      seq = recovered.last_seq;
      ckpt_seq = Option.value recovered.checkpoint_seq ~default:0;
      since_checkpoint = recovered.replayed;
      last_sync = Unix.gettimeofday ();
      dirty = false;
      broken = false;
      appended = 0;
      synced = 0;
      bytes = 0;
      checkpoints_written = 0;
      replayed_at_open = recovered.replayed;
    },
    recovered )

let dir t = t.dir
let policy t = t.policy
let last_seq t = t.seq

let sync t =
  if t.dirty then begin
    Fault.hit Fault.wal_sync;
    let t0 = Unix.gettimeofday () in
    Unix.fsync t.fd;
    Histogram.record h_sync (Unix.gettimeofday () -. t0);
    t.dirty <- false;
    t.last_sync <- Unix.gettimeofday ();
    t.synced <- t.synced + 1
  end

let maybe_sync t =
  match t.policy with
  | Always -> sync t
  | Never -> ()
  | Interval s -> if Unix.gettimeofday () -. t.last_sync >= s then sync t

let append t mutation ~revision =
  if t.broken then
    Error.internal
      "WAL %s is broken by an earlier failed append; restart to recover"
      (wal_file t.dir);
  Fault.hit Fault.wal_append;
  let seq = t.seq + 1 in
  let framed = frame (encode_payload ~seq ~revision mutation) in
  let size_before = (Unix.fstat t.fd).Unix.st_size in
  let prev_dirty = t.dirty in
  (match write_all t.fd framed with
  | () -> ()
  | exception e ->
    t.broken <- true;
    raise e);
  t.seq <- seq;
  t.dirty <- true;
  t.appended <- t.appended + 1;
  t.bytes <- t.bytes + String.length framed;
  t.since_checkpoint <- t.since_checkpoint + 1;
  match maybe_sync t with
  | () -> ()
  | exception e ->
    (* Written but not durable: the client will see this mutation's ERR
       and the store will not apply it, so the record must not survive
       into recovery — roll the append back.  If even the rollback fails
       the log is broken (refusing further appends), which a restart
       repairs as a torn tail. *)
    (match Unix.ftruncate t.fd size_before with
    | () ->
      t.seq <- seq - 1;
      t.dirty <- prev_dirty;
      t.appended <- t.appended - 1;
      t.bytes <- t.bytes - String.length framed;
      t.since_checkpoint <- t.since_checkpoint - 1
    | exception _ -> t.broken <- true);
    raise e

let due_checkpoint t =
  match t.checkpoint_every with
  | Some n -> t.since_checkpoint >= n
  | None -> false

let checkpoint t ~tbox ~abox ~prepared =
  (* everything appended so far must be durable before the log truncates *)
  sync t;
  let seq = t.seq in
  let content = encode_checkpoint ~seq ~tbox ~abox ~prepared in
  let final = checkpoint_file t.dir seq in
  let tmp = final ^ ".tmp" in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Unix.rename tmp final;
  fsync_dir t.dir;
  (* the new checkpoint is durable: retire its predecessors and the tail *)
  List.iter
    (fun (s, path) -> if s <> seq then try Sys.remove path with Sys_error _ -> ())
    (checkpoints t.dir);
  Unix.ftruncate t.fd 0;
  Unix.fsync t.fd;
  t.dirty <- false;
  t.ckpt_seq <- seq;
  t.since_checkpoint <- 0;
  t.checkpoints_written <- t.checkpoints_written + 1;
  seq

let close t =
  (try sync t with _ -> ());
  try Unix.close t.fd with _ -> ()

let stats_rows t =
  Exposition.
    [
      Gauge ("server.wal.seq", Int t.seq);
      Counter ("server.wal.appended", t.appended);
      Counter ("server.wal.bytes", t.bytes);
      Counter ("server.wal.syncs", t.synced);
      Counter ("server.wal.checkpoints", t.checkpoints_written);
      Gauge ("server.wal.replayed", Int t.replayed_at_open);
    ]
