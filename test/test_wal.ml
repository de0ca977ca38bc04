(* Durability: the WAL/checkpoint format, crash recovery, and the
   session integration — every acknowledged mutation must be recoverable,
   no unacknowledged mutation may survive, and a torn final record (the
   debris of a crash mid-append) must never stop the server from
   starting. *)

module Wal = Obda_service.Wal
module Session = Obda_service.Session
module Serve = Obda_service.Serve
module Abox = Obda_data.Abox
module Parse = Obda_parse.Parse
module Symbol = Obda_syntax.Symbol
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Omq = Obda_rewriting.Omq

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* fixtures *)

let temp_root = Filename.get_temp_dir_name ()
let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun entry -> rm_rf (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  incr dir_counter;
  let dir =
    Filename.concat temp_root
      (Printf.sprintf "obda-wal-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let sym = Symbol.intern
let fa c = Abox.Concept_assertion (sym "A", sym c)
let fr c d = Abox.Role_assertion (sym "R", sym c, sym d)

(* canonical string form of an ABox's content, for byte-identical
   comparisons across recovery *)
let facts_key abox =
  Abox.to_facts abox
  |> List.map (Format.asprintf "%a" Abox.pp_fact)
  |> List.sort compare |> String.concat ";"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let wal_path dir = Filename.concat dir "wal.log"

(* ------------------------------------------------------------------ *)
(* format *)

let test_crc32_vectors () =
  (* the standard IEEE CRC32 check value *)
  check_int "check vector" 0xCBF43926 (Wal.crc32 "123456789");
  check_int "empty string" 0 (Wal.crc32 "");
  check "order-sensitive" true (Wal.crc32 "ab" <> Wal.crc32 "ba")

let test_sync_policy_spellings () =
  check "always" true (Wal.sync_policy_of_string "always" = Ok Wal.Always);
  check "never" true (Wal.sync_policy_of_string "never" = Ok Wal.Never);
  (match Wal.sync_policy_of_string "interval:250" with
  | Ok (Wal.Interval s) ->
    check "250 ms in seconds" true (abs_float (s -. 0.25) < 1e-9)
  | _ -> Alcotest.fail "interval:250 should parse");
  let is_error s =
    match Wal.sync_policy_of_string s with Error _ -> true | Ok _ -> false
  in
  check "bad word" true (is_error "sometimes");
  check "bad interval" true (is_error "interval:soon");
  check "negative interval" true (is_error "interval:-5");
  List.iter
    (fun p ->
      check "to_string round-trips" true
        (Wal.sync_policy_of_string (Wal.sync_policy_to_string p) = Ok p))
    [ Wal.Always; Wal.Never; Wal.Interval 0.1 ]

let test_abox_codec_roundtrip () =
  let a = Abox.create () in
  Abox.add_fact a (fa "a");
  Abox.add_fact a (fa "b");
  Abox.add_fact a (fr "a" "b");
  Abox.add_fact a (fr "b" "a");
  Abox.add_unary a (sym "B") (sym "weird name \xffwith bytes");
  let b = Abox.deserialize (Abox.serialize a) in
  check_str "same facts" (facts_key a) (facts_key b);
  check_int "same atom count" (Abox.num_atoms a) (Abox.num_atoms b);
  (* empty instance round-trips too *)
  let e = Abox.deserialize (Abox.serialize (Abox.create ())) in
  check_int "empty" 0 (Abox.num_atoms e)

let test_abox_codec_rejects_corruption () =
  let blob = Abox.serialize (Abox.of_facts [ fa "a"; fr "a" "b" ]) in
  let corrupt s =
    match Abox.deserialize s with
    | _ -> false
    | exception Abox.Corrupt _ -> true
  in
  check "bad magic" true (corrupt ("XXXX" ^ String.sub blob 4 (String.length blob - 4)));
  check "truncated" true (corrupt (String.sub blob 0 (String.length blob - 3)));
  check "trailing garbage" true (corrupt (blob ^ "x"));
  let bumped = Bytes.of_string blob in
  (* bump the version byte *)
  Bytes.set bumped 4 '\xfe';
  check "unknown version" true (corrupt (Bytes.to_string bumped));
  (* a dictionary size the blob cannot hold is rejected before it sizes an
     allocation; the 2^24 case runs first, so a decoder that allocates
     first fails on its allocation (128 MB) before meeting the larger one *)
  let lying_dictionary count =
    let b = Buffer.create 14 in
    Buffer.add_string b "OBAX\001";
    Buffer.add_int32_le b (Int32.of_int count);
    (* one entry of one byte *)
    Buffer.add_int32_le b 1l;
    Buffer.add_char b 'x';
    Buffer.contents b
  in
  let before = Gc.allocated_bytes () in
  check "dictionary size 2^24" true (corrupt (lying_dictionary (1 lsl 24)));
  check "rejected without a sized allocation" true
    (Gc.allocated_bytes () -. before < 1e6);
  check "dictionary size 0x7FFFFFF0" true
    (corrupt (lying_dictionary 0x7FFFFFF0))

(* ------------------------------------------------------------------ *)
(* recovery *)

let test_recover_empty_and_missing_dir () =
  with_temp_dir (fun dir ->
      (* the dir does not even exist yet *)
      let missing = Filename.concat dir "never-created" in
      let r = Wal.recover missing in
      check "no checkpoint" true (r.Wal.checkpoint_seq = None);
      check_int "nothing replayed" 0 r.Wal.replayed;
      check_int "no tear" 0 r.Wal.torn_bytes;
      check_int "empty state" 0 (Abox.num_atoms r.Wal.abox);
      check "no ontology" true (r.Wal.tbox = None);
      (* an existing but empty dir behaves the same *)
      Unix.mkdir dir 0o755;
      let r = Wal.recover dir in
      check_int "empty dir replays nothing" 0 r.Wal.replayed)

let test_append_recover_roundtrip () =
  with_temp_dir (fun dir ->
      let wal, r0 = Wal.open_ dir in
      check_int "fresh log" 0 r0.Wal.replayed;
      Wal.append wal (Wal.Assert [ fa "a"; fr "a" "b" ]) ~revision:2;
      Wal.append wal (Wal.Load_ontology (Parse.ontology_of_string "A(x) -> B(x)"))
        ~revision:2;
      Wal.append wal (Wal.Retract [ fr "a" "b" ]) ~revision:3;
      Wal.close wal;
      let r = Wal.recover dir in
      check "no checkpoint" true (r.Wal.checkpoint_seq = None);
      check_int "three records" 3 r.Wal.replayed;
      check_int "last seq" 3 r.Wal.last_seq;
      check "ontology recovered" true (r.Wal.tbox <> None);
      check_str "facts recovered" (facts_key (Abox.of_facts [ fa "a" ]))
        (facts_key r.Wal.abox);
      (* recovery is idempotent: a second run sees the same state *)
      check_str "idempotent" (facts_key r.Wal.abox)
        (facts_key (Wal.recover dir).Wal.abox))

let test_load_data_resets_store () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      Wal.append wal (Wal.Assert [ fa "a"; fa "b" ]) ~revision:2;
      Wal.append wal (Wal.Load_data (Abox.of_facts [ fr "x" "y" ]))
        ~revision:1;
      Wal.append wal (Wal.Assert [ fa "c" ]) ~revision:2;
      Wal.close wal;
      let r = Wal.recover dir in
      check_str "LOAD DATA replaces, later asserts apply on top"
        (facts_key (Abox.of_facts [ fr "x" "y"; fa "c" ]))
        (facts_key r.Wal.abox);
      (* the log's own sequence keeps counting across the reset *)
      check_int "seq survives the reset" 3 r.Wal.last_seq)

let test_checkpoint_and_tail () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      let tbox = Parse.ontology_of_string "A(x) -> B(x)" in
      Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
      Wal.append wal (Wal.Assert [ fa "b" ]) ~revision:2;
      let abox = Abox.of_facts [ fa "a"; fa "b" ] in
      let seq = Wal.checkpoint wal ~tbox:(Some tbox) ~abox ~prepared:[] in
      check_int "checkpoint covers both records" 2 seq;
      check_int "log truncated" 0
        (Unix.stat (wal_path dir)).Unix.st_size;
      (* tail on top of the checkpoint *)
      Wal.append wal (Wal.Assert [ fa "c" ]) ~revision:3;
      Wal.close wal;
      let r = Wal.recover dir in
      check "restored from the checkpoint" true
        (r.Wal.checkpoint_seq = Some 2);
      check_int "only the tail replays" 1 r.Wal.replayed;
      check "ontology from the checkpoint" true (r.Wal.tbox <> None);
      check_str "checkpoint + tail"
        (facts_key (Abox.of_facts [ fa "a"; fa "b"; fa "c" ]))
        (facts_key r.Wal.abox))

let test_checkpoint_without_tail () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
      ignore
        (Wal.checkpoint wal ~tbox:None
           ~abox:(Abox.of_facts [ fa "a" ])
           ~prepared:[]);
      Wal.close wal;
      let r = Wal.recover dir in
      check "checkpoint restored" true (r.Wal.checkpoint_seq = Some 1);
      check_int "no tail" 0 r.Wal.replayed;
      check_str "state is the checkpoint"
        (facts_key (Abox.of_facts [ fa "a" ]))
        (facts_key r.Wal.abox))

let test_old_checkpoints_retired () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
      ignore
        (Wal.checkpoint wal ~tbox:None
           ~abox:(Abox.of_facts [ fa "a" ])
           ~prepared:[]);
      Wal.append wal (Wal.Assert [ fa "b" ]) ~revision:2;
      ignore
        (Wal.checkpoint wal ~tbox:None
           ~abox:(Abox.of_facts [ fa "a"; fa "b" ])
           ~prepared:[]);
      Wal.close wal;
      let checkpoints =
        Sys.readdir dir |> Array.to_list
        |> List.filter (String.starts_with ~prefix:"checkpoint.")
      in
      Alcotest.(check (list string))
        "only the newest file remains" [ "checkpoint.2" ]
        (List.sort compare checkpoints))

(* Build a 3-record log and return (dir is rebuilt by the callback) the
   raw bytes plus the byte length of the final frame. *)
let three_record_log dir =
  let wal, _ = Wal.open_ dir in
  Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
  Wal.append wal (Wal.Assert [ fa "b"; fr "a" "b" ]) ~revision:3;
  let before_last = (Unix.stat (wal_path dir)).Unix.st_size in
  Wal.append wal (Wal.Retract [ fa "a" ]) ~revision:4;
  Wal.close wal;
  let bytes = read_file (wal_path dir) in
  (bytes, before_last)

let test_torn_final_record_every_offset () =
  with_temp_dir (fun build_dir ->
      let bytes, before_last = three_record_log build_dir in
      let total = String.length bytes in
      check "the last frame is non-trivial" true (total - before_last > 12);
      let after_two = facts_key (Abox.of_facts [ fa "a"; fa "b"; fr "a" "b" ]) in
      with_temp_dir (fun dir ->
          Unix.mkdir dir 0o755;
          (* every truncation point inside the final record, from "only
             its first byte survived" to "one byte short of complete" *)
          for cut = before_last + 1 to total - 1 do
            write_file (wal_path dir) (String.sub bytes 0 cut);
            let r = Wal.recover dir in
            check ("dry run reports the tear at cut " ^ string_of_int cut)
              true
              (r.Wal.torn_bytes = cut - before_last);
            check_int "the acknowledged prefix survives" 2 r.Wal.replayed;
            check_str "prefix state" after_two (facts_key r.Wal.abox);
            check "dry run does not touch the file" true
              ((Unix.stat (wal_path dir)).Unix.st_size = cut);
            (* repair physically truncates the tear *)
            let r = Wal.recover ~repair:true dir in
            check "repair reports the tear" true (r.Wal.torn_bytes > 0);
            check_int "repair truncates to the valid prefix" before_last
              (Unix.stat (wal_path dir)).Unix.st_size;
            check_int "after repair the tear is gone" 0
              (Wal.recover dir).Wal.torn_bytes
          done;
          (* a clean cut exactly between records is not a tear *)
          write_file (wal_path dir) (String.sub bytes 0 before_last);
          let r = Wal.recover dir in
          check_int "clean prefix has no tear" 0 r.Wal.torn_bytes;
          check_int "clean prefix replays" 2 r.Wal.replayed))

let test_interior_corruption_is_fatal () =
  with_temp_dir (fun build_dir ->
      let bytes, before_last = three_record_log build_dir in
      with_temp_dir (fun dir ->
          Unix.mkdir dir 0o755;
          (* flip one payload byte of the FIRST record: valid bytes follow
             the damage, so this is not a torn tail *)
          let damaged = Bytes.of_string bytes in
          Bytes.set damaged 10
            (Char.chr (Char.code (Bytes.get damaged 10) lxor 0xff));
          write_file (wal_path dir) (Bytes.to_string damaged);
          (match Wal.recover dir with
          | _ -> Alcotest.fail "interior corruption must raise"
          | exception Error.Obda_error err ->
            check "typed internal error" true
              (match err with Error.Internal _ -> true | _ -> false));
          (* the same damage in the LAST record is a torn tail instead:
             nothing valid follows it *)
          let damaged = Bytes.of_string bytes in
          Bytes.set damaged (before_last + 9)
            (Char.chr
               (Char.code (Bytes.get damaged (before_last + 9)) lxor 0xff));
          write_file (wal_path dir) (Bytes.to_string damaged);
          let r = Wal.recover dir in
          check "trailing damage is a tear, not corruption" true
            (r.Wal.torn_bytes > 0);
          check_int "prefix still recovered" 2 r.Wal.replayed))

let test_corrupt_checkpoint_handling () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
      ignore
        (Wal.checkpoint wal ~tbox:None
           ~abox:(Abox.of_facts [ fa "a" ])
           ~prepared:[]);
      Wal.close wal;
      (* a newer-but-garbage checkpoint is skipped with a warning in
         favour of the valid older one *)
      write_file (Filename.concat dir "checkpoint.99") "not a checkpoint";
      let r = Wal.recover dir in
      check "fell back to the valid checkpoint" true
        (r.Wal.checkpoint_seq = Some 1);
      check "warned about the garbage" true (r.Wal.warnings <> []);
      check_str "state intact"
        (facts_key (Abox.of_facts [ fa "a" ]))
        (facts_key r.Wal.abox);
      (* with no valid checkpoint left, refusing beats silently starting
         empty *)
      Unix.unlink (Filename.concat dir "checkpoint.1");
      check "all checkpoints invalid raises" true
        (match Wal.recover dir with
        | _ -> false
        | exception Error.Obda_error (Error.Internal _) -> true))

let test_prepared_queries_survive_checkpoint () =
  with_temp_dir (fun dir ->
      let wal, _ = Wal.open_ dir in
      let tbox = Parse.ontology_of_string "A(x) -> B(x)" in
      Wal.append wal (Wal.Load_ontology tbox) ~revision:0;
      ignore
        (Wal.checkpoint wal ~tbox:(Some tbox) ~abox:(Abox.create ())
           ~prepared:[ ("q1", Omq.Ucq, "q(x) <- A(x)") ]);
      Wal.close wal;
      let r = Wal.recover dir in
      (match r.Wal.prepared with
      | [ (name, alg, text) ] ->
        check_str "name" "q1" name;
        check "algorithm" true (alg = Omq.Ucq);
        check_str "query text" "q(x) <- A(x)" text
      | other ->
        Alcotest.failf "expected one prepared query, got %d"
          (List.length other)))

(* ------------------------------------------------------------------ *)
(* session integration *)

let ok_first lines =
  match lines with
  | line :: _ -> line
  | [] -> Alcotest.fail "expected a response line"

let test_session_wal_hook_end_to_end () =
  with_temp_dir (fun dir ->
      let session = Session.create () in
      let wal, _ = Wal.open_ dir in
      Serve.attach_wal session wal;
      Fun.protect
        ~finally:(fun () ->
          Serve.detach_wal session;
          Wal.close wal)
        (fun () ->
          let exec line = fst (Serve.handle_line session line) in
          check "assert acked" true
            (String.starts_with ~prefix:"OK asserted"
               (ok_first (exec "ASSERT A(a) A(b) R(a,b)")));
          check "retract acked" true
            (String.starts_with ~prefix:"OK retracted"
               (ok_first (exec "RETRACT A(b)")));
          (* an assert of already-present facts is a no-op: it must not
             append a record *)
          let seq_before = Wal.last_seq wal in
          check_str "no-op assert" "OK asserted added=0 atoms=2"
            (ok_first (exec "ASSERT A(a)"));
          check_int "no record for a no-op" seq_before (Wal.last_seq wal);
          (* with the hook installed, STATS grows the wal rows *)
          (match exec "STATS" with
          | status :: rows ->
            check_str "stats row count" "OK stats=19" status;
            check "wal seq row" true
              (List.exists
                 (String.starts_with ~prefix:"server.wal.seq ")
                 rows)
          | [] -> Alcotest.fail "no stats");
          (* PING answers with the revision *)
          check "pong" true
            (String.starts_with ~prefix:"OK pong rev="
               (ok_first (exec "PING")));
          (* CHECKPOINT compacts the log *)
          check "checkpoint verb" true
            (String.starts_with ~prefix:"OK checkpoint seq="
               (ok_first (exec "CHECKPOINT")));
          check_int "log truncated by the checkpoint" 0
            (Unix.stat (wal_path dir)).Unix.st_size;
          (* what a restart would see = exactly the live state *)
          let r = Wal.recover dir in
          check_str "recovered state matches the session"
            (facts_key (Session.abox session))
            (facts_key r.Wal.abox)))

let test_wal_append_fault_keeps_store_untouched () =
  with_temp_dir (fun dir ->
      let session = Session.create () in
      let wal, _ = Wal.open_ dir in
      Serve.attach_wal session wal;
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          Serve.detach_wal session;
          Wal.close wal)
        (fun () ->
          let exec line = fst (Serve.handle_line session line) in
          check "seed fact acked" true
            (String.starts_with ~prefix:"OK"
               (ok_first (exec "ASSERT A(seed)")));
          (match Fault.parse_plan "wal.append@1" with
          | Error e -> Alcotest.fail e
          | Ok plan -> Fault.arm plan);
          let line = ok_first (exec "ASSERT A(lost) A(gone)") in
          check "mutation fails in protocol" true
            (String.starts_with ~prefix:"ERR class=internal" line);
          (* log-before-apply: the store must NOT contain the facts the
             client never got an OK for *)
          check_str "store untouched"
            (facts_key (Abox.of_facts [ fa "seed" ]))
            (facts_key (Session.abox session));
          Fault.disarm ();
          (* ... and neither does recovery *)
          check_str "recovery agrees"
            (facts_key (Abox.of_facts [ fa "seed" ]))
            (facts_key (Wal.recover dir).Wal.abox);
          (* the session is still usable after the fault *)
          check "session usable after the fault" true
            (String.starts_with ~prefix:"OK"
               (ok_first (exec "ASSERT A(after)")))))

(* ------------------------------------------------------------------ *)
(* the crash-recovery property *)

(* Random mutation streams applied through the serve loop with the WAL
   attached; after EVERY acknowledged request the recovered state must be
   byte-identical to the live store (which itself equals the sequential
   replay of the acknowledged prefix, by construction of the serve
   loop).  Faults injected at the wal.append site must drop exactly the
   unacknowledged mutation. *)

let random_mutation rng =
  let const () = Printf.sprintf "c%d" (Random.State.int rng 6) in
  match Random.State.int rng 4 with
  | 0 -> Printf.sprintf "ASSERT A(%s)" (const ())
  | 1 -> Printf.sprintf "ASSERT R(%s,%s)" (const ()) (const ())
  | 2 -> Printf.sprintf "RETRACT A(%s)" (const ())
  | _ -> Printf.sprintf "RETRACT R(%s,%s)" (const ()) (const ())

let test_crash_recovery_property () =
  List.iter
    (fun seed ->
      with_temp_dir (fun dir ->
          let rng = Random.State.make [| seed |] in
          let session = Session.create () in
          let wal, _ = Wal.open_ dir in
          Serve.attach_wal session wal;
          Fun.protect
            ~finally:(fun () ->
              Serve.detach_wal session;
              Wal.close wal)
            (fun () ->
              for step = 1 to 25 do
                let line = random_mutation rng in
                let response =
                  ok_first (fst (Serve.handle_line session line))
                in
                check ("mutation acked at step " ^ string_of_int step) true
                  (String.starts_with ~prefix:"OK" response);
                (* recover as a crash right now would: the state must be
                   byte-identical to the acknowledged one *)
                let r = Wal.recover dir in
                check_str
                  (Printf.sprintf "seed %d step %d recoverable" seed step)
                  (facts_key (Session.abox session))
                  (facts_key r.Wal.abox)
              done)))
    [ 1; 7; 42 ]

let test_crash_recovery_with_injected_append_faults () =
  (* every possible kill point: for a 12-mutation stream, fail the k-th
     append for each k; acknowledged requests (and only those) recover *)
  let stream rng n = List.init n (fun _ -> random_mutation rng) in
  List.iter
    (fun kill_at ->
      with_temp_dir (fun dir ->
          let rng = Random.State.make [| 1000 + kill_at |] in
          let session = Session.create () in
          let wal, _ = Wal.open_ dir in
          Serve.attach_wal session wal;
          Fun.protect
            ~finally:(fun () ->
              Fault.disarm ();
              Serve.detach_wal session;
              Wal.close wal)
            (fun () ->
              (match
                 Fault.parse_plan (Printf.sprintf "wal.append@%d" kill_at)
               with
              | Error e -> Alcotest.fail e
              | Ok plan -> Fault.arm plan);
              (* replay the acknowledged prefix into a shadow store *)
              let shadow = Session.create () in
              List.iter
                (fun line ->
                  let response =
                    ok_first (fst (Serve.handle_line session line))
                  in
                  if String.starts_with ~prefix:"OK" response then
                    ignore (Serve.handle_line shadow line))
                (stream rng 12);
              Fault.disarm ();
              let r = Wal.recover dir in
              check_str
                (Printf.sprintf
                   "kill at append %d: recovery = acknowledged prefix" kill_at)
                (facts_key (Session.abox shadow))
                (facts_key r.Wal.abox);
              check_str "live session agrees"
                (facts_key (Session.abox session))
                (facts_key r.Wal.abox))))
    (List.init 8 (fun i -> i + 1))

let test_interval_and_never_policies () =
  List.iter
    (fun policy ->
      with_temp_dir (fun dir ->
          let wal, _ = Wal.open_ ~policy dir in
          Wal.append wal (Wal.Assert [ fa "a" ]) ~revision:1;
          Wal.append wal (Wal.Assert [ fa "b" ]) ~revision:2;
          Wal.close wal;
          let r = Wal.recover dir in
          check_str
            ("policy " ^ Wal.sync_policy_to_string policy)
            (facts_key (Abox.of_facts [ fa "a"; fa "b" ]))
            (facts_key r.Wal.abox)))
    [ Wal.Interval 0.05; Wal.Never ]

let test_checkpoint_every_trigger () =
  with_temp_dir (fun dir ->
      let session = Session.create () in
      let wal, _ = Wal.open_ ~checkpoint_every:2 dir in
      Serve.attach_wal session wal;
      Fun.protect
        ~finally:(fun () ->
          Serve.detach_wal session;
          Wal.close wal)
        (fun () ->
          let exec line = ignore (Serve.handle_line session line) in
          exec "ASSERT A(a)";
          exec "ASSERT A(b)";
          (* the second mutation crossed the threshold: the serve loop
             checkpoints after acknowledging it *)
          check "a checkpoint file appeared" true
            (Array.exists
               (String.starts_with ~prefix:"checkpoint.")
               (Sys.readdir dir));
          check_int "log truncated" 0 (Unix.stat (wal_path dir)).Unix.st_size;
          let r = Wal.recover dir in
          check_str "state preserved across the auto-checkpoint"
            (facts_key (Session.abox session))
            (facts_key r.Wal.abox)))

(* Two durable sessions in one process each log to, and checkpoint into,
   their own WAL only. *)
let test_two_durable_sessions () =
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          let a = Session.create () and b = Session.create () in
          let wal_a, _ = Wal.open_ ~checkpoint_every:1 dir_a in
          let wal_b, _ = Wal.open_ dir_b in
          Serve.attach_wal a wal_a;
          Serve.attach_wal b wal_b;
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun (s, wal) ->
                  Serve.detach_wal s;
                  Wal.close wal)
                [ (a, wal_a); (b, wal_b) ])
            (fun () ->
              let exec s line = ok_first (fst (Serve.handle_line s line)) in
              check "A asserts" true
                (String.starts_with ~prefix:"OK asserted"
                   (exec a "ASSERT A(a1)"));
              (* A's own --checkpoint-every 1, with B attached after A *)
              check "A's trigger wrote A's checkpoint" true
                (Array.exists
                   (String.starts_with ~prefix:"checkpoint.")
                   (Sys.readdir dir_a));
              check_int "A's log truncated" 0
                (Unix.stat (wal_path dir_a)).Unix.st_size;
              List.iter
                (fun line ->
                  check ("B: " ^ line) true
                    (String.starts_with ~prefix:"OK asserted" (exec b line)))
                [ "ASSERT A(b1)"; "ASSERT A(b2)" ];
              check "CHECKPOINT on A" true
                (String.starts_with ~prefix:"OK checkpoint seq="
                   (exec a "CHECKPOINT"));
              check_str "B's directory recovers exactly B's facts"
                (facts_key (Abox.of_facts [ fa "b1"; fa "b2" ]))
                (facts_key (Wal.recover dir_b).Wal.abox);
              check_str "A's directory recovers exactly A's facts"
                (facts_key (Abox.of_facts [ fa "a1" ]))
                (facts_key (Wal.recover dir_a).Wal.abox))))

(* One registry behind STATS, METRICS and the CLI's telemetry sinks: for
   a session with a WAL behind a server, every STATS row has its METRICS
   sample(s) under the sanitized name, with its declared kind and the
   same value, and the same rows reach an installed collector at teardown
   under their STATS names and kinds.  The kinds are pinned too: a rate
   over a counter is what [obda top] and Prometheus read. *)
let test_metrics_registry_agreement () =
  let module Server = Obda_service.Server in
  let module Client = Obda_service.Client in
  let module Exposition = Obda_obs.Exposition in
  let module Obs = Obda_obs.Obs in
  let counters =
    [
      "requests"; "cache.hits"; "cache.misses"; "cache.evictions";
      "server.connections.accepted"; "server.connections.shed";
      "server.requests.served"; "server.requests.shed";
      "server.wal.appended"; "server.wal.bytes"; "server.wal.syncs";
      "server.wal.checkpoints";
    ]
  in
  let kind_name = function Obs.Counter -> "counter" | Obs.Gauge -> "gauge" in
  let number v = Obs.(match v with Int n -> float_of_int n | Float f -> f) in
  (* "name value" lines, and the samples and # TYPE kinds of METRICS *)
  let split line =
    match String.rindex_opt line ' ' with
    | Some i ->
      (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.failf "unparsable line %S" line
  in
  let exposition lines =
    let types = Hashtbl.create 64 and values = Hashtbl.create 64 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] -> Hashtbl.replace types name kind
        | _ when not (String.contains line '{') ->
          let name, v = split line in
          Hashtbl.replace values name (float_of_string v)
        | _ -> ())
      lines;
    (types, values)
  in
  with_temp_dir (fun dir ->
      let session = Session.create () in
      Session.load_ontology session (Parse.ontology_of_string "A(x) -> B(x)");
      let wal, _ = Wal.open_ (Filename.concat dir "data") in
      Serve.attach_wal session wal;
      let path = Filename.concat dir "s.sock" in
      let server = Server.create (Server.Unix_socket path) session in
      let t = Thread.create (fun () -> ignore (Server.run server)) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join t;
          Serve.detach_wal session;
          Wal.close wal)
        (fun () ->
          let c = Client.connect (Server.Unix_socket path) in
          List.iter
            (fun line -> ignore (Client.request c line))
            [ "PREPARE q q(x) <- B(x)"; "ASSERT A(a) A(b)"; "ANSWER q";
              "CHECKPOINT"; "RETRACT A(b)"; "ANSWER q";
              "PREPARE q q(x) <- B(x)" ];
          (* the verbs: STATS lists the rows in order, METRICS types them
             as declared *)
          let stats_status, stats_lines =
            match Client.request c "STATS" with
            | status :: lines -> (status, lines)
            | [] -> Alcotest.fail "no STATS response"
          in
          let types, _ =
            exposition (List.tl (Client.request c "METRICS"))
          in
          Client.close c;
          let rows = Session.stats session in
          check_str "13 session, 6 WAL and 11 server rows" "OK stats=30"
            stats_status;
          let name_of = function
            | Exposition.Counter (name, _) | Exposition.Gauge (name, _) -> name
          in
          Alcotest.(check (list string))
            "STATS names, in order" (List.map name_of rows)
            (List.map (fun l -> fst (split l)) stats_lines);
          check "two revisions served" true
            (List.mem "server.snapshot.revisions 2-3" stats_lines);
          (* one snapshot of the rows, rendered by each consumer *)
          let metric_types, metric_values =
            exposition
              (String.split_on_char '\n' (Exposition.render rows)
              |> List.filter (( <> ) ""))
          in
          let (), collector =
            Obs.collecting (fun () -> Exposition.publish rows)
          in
          let published = Obs.Collector.metrics collector in
          let samples = ref 0 in
          List.iter
            (fun row ->
              let name, value = split (Exposition.stats_line row) in
              let kind =
                match row with
                | Exposition.Counter _ -> Obs.Counter
                | Exposition.Gauge _ -> Obs.Gauge
              in
              check_str (name ^ " declared kind")
                (if List.mem name counters then "counter" else "gauge")
                (kind_name kind);
              (* the samples a reader of the STATS line expects *)
              let expected, tolerance =
                match (int_of_string_opt value, String.split_on_char '-' value) with
                | Some n, _ -> ([ (name, float_of_int n) ], 0.)
                | None, [ lo; hi ] when lo <> "" && hi <> "" ->
                  ( [ (name ^ "_lo", float_of_string lo);
                      (name ^ "_hi", float_of_string hi) ],
                    0. )
                | None, _ -> (
                  match value with
                  | "yes" -> ([ (name, 1.) ], 0.)
                  | "no" -> ([ (name, 0.) ], 0.)
                  | "unknown" | "-" -> ([], 0.)
                  | _ ->
                    let decimals =
                      String.length value - String.index value '.' - 1
                    in
                    ( [ (name, float_of_string value) ],
                      0.5 *. (10. ** float_of_int (-decimals)) +. 1e-12 ))
              in
              if expected = [] then
                check (name ^ " has no sample") false
                  (Hashtbl.mem metric_values (Exposition.sanitize name));
              samples := !samples + List.length expected;
              List.iter
                (fun (sample, v) ->
                  let exposed = Exposition.sanitize sample in
                  check_str (exposed ^ " # TYPE") (kind_name kind)
                    (Option.value ~default:"missing"
                       (Hashtbl.find_opt metric_types exposed));
                  check_str (exposed ^ " # TYPE over the wire") (kind_name kind)
                    (Option.value ~default:"missing"
                       (Hashtbl.find_opt types exposed));
                  (match Hashtbl.find_opt metric_values exposed with
                  | Some m ->
                    check (exposed ^ " = STATS value") true
                      (Float.abs (m -. v) <= tolerance)
                  | None -> Alcotest.failf "no METRICS sample %s" exposed);
                  match
                    List.find_opt (fun (n, _, _) -> n = sample) published
                  with
                  | Some (_, k, m) ->
                    check_str (sample ^ " published kind") (kind_name kind)
                      (kind_name k);
                    check (sample ^ " published = STATS value") true
                      (Float.abs (number m -. v) <= tolerance)
                  | None -> Alcotest.failf "%s not published" sample)
                expected)
            rows;
          check_int "nothing published beyond the rows' samples" !samples
            (List.length published)))

let suites =
  [
    ( "wal",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "sync-policy spellings" `Quick
          test_sync_policy_spellings;
        Alcotest.test_case "abox codec round-trip" `Quick
          test_abox_codec_roundtrip;
        Alcotest.test_case "abox codec rejects corruption" `Quick
          test_abox_codec_rejects_corruption;
        Alcotest.test_case "recover: empty and missing dir" `Quick
          test_recover_empty_and_missing_dir;
        Alcotest.test_case "append/recover round-trip" `Quick
          test_append_recover_roundtrip;
        Alcotest.test_case "LOAD DATA resets the store" `Quick
          test_load_data_resets_store;
        Alcotest.test_case "checkpoint + tail replay" `Quick
          test_checkpoint_and_tail;
        Alcotest.test_case "checkpoint without tail" `Quick
          test_checkpoint_without_tail;
        Alcotest.test_case "old checkpoints retired" `Quick
          test_old_checkpoints_retired;
        Alcotest.test_case "torn final record at every offset" `Quick
          test_torn_final_record_every_offset;
        Alcotest.test_case "interior corruption is fatal" `Quick
          test_interior_corruption_is_fatal;
        Alcotest.test_case "corrupt checkpoint handling" `Quick
          test_corrupt_checkpoint_handling;
        Alcotest.test_case "prepared queries survive checkpoints" `Quick
          test_prepared_queries_survive_checkpoint;
        Alcotest.test_case "session hook end to end" `Quick
          test_session_wal_hook_end_to_end;
        Alcotest.test_case "append fault keeps the store untouched" `Quick
          test_wal_append_fault_keeps_store_untouched;
        Alcotest.test_case "crash-recovery property" `Quick
          test_crash_recovery_property;
        Alcotest.test_case "crash recovery under injected append faults"
          `Quick test_crash_recovery_with_injected_append_faults;
        Alcotest.test_case "interval and never sync policies" `Quick
          test_interval_and_never_policies;
        Alcotest.test_case "--checkpoint-every trigger" `Quick
          test_checkpoint_every_trigger;
        Alcotest.test_case "two durable sessions keep their own logs" `Quick
          test_two_durable_sessions;
        Alcotest.test_case "STATS, METRICS and telemetry agree" `Quick
          test_metrics_registry_agreement;
      ] );
  ]
