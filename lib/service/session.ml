(* A service session: resident ontology, mutable data store, prepared
   queries and the rewriting cache.

   Sessions are shared by the concurrent network server, so every state
   transition — loads, fact mutations, prepared-registry and cache updates,
   consistency-memo writes — happens under the session lock.  Reads that
   feed evaluation go through [freeze]: an O(1) copy-on-write ABox snapshot
   taken under the lock, after which evaluation proceeds with no lock held
   at all.  The consistency memo is keyed by (generation, revision) —
   generation bumps on every LOAD — so verdicts computed against different
   frozen revisions never collide. *)

module Omq = Obda_rewriting.Omq
module Tbox = Obda_ontology.Tbox
module Abox = Obda_data.Abox
module Eval = Obda_ndl.Eval
module Parse = Obda_parse.Parse
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs
module Exposition = Obda_obs.Exposition

type t = {
  lock : Mutex.t;
  mutable tbox : Tbox.t option;
  mutable abox : Abox.t;
  mutable generation : int;
      (* bumped on LOAD ONTOLOGY / LOAD DATA: revisions of different
         stores (or against different TBoxes) must not share memo slots *)
  consistency : (int * int, bool) Hashtbl.t;
      (* (generation, revision) -> verdict; bounded (reset over
         [memo_bound]), idempotent to racing writers *)
  prepared : (string, Prepared.t) Hashtbl.t;
  cache : Cache.t;
  budget : Budget.t;
  requests : int Atomic.t;
  mutable frozen_span : (int * int) option;
      (* min/max ABox revision ever served through [freeze] *)
  mutable stats_hook : (unit -> Exposition.row list) option;
  mutable wal : Wal.t option;
      (* appended to under the lock, BEFORE a mutation is applied *)
  created : float;
}

let memo_bound = 128

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let create ?(budget = Budget.none) ?cache_entries ?cache_weight () =
  {
    lock = Mutex.create ();
    tbox = None;
    abox = Abox.create ();
    generation = 0;
    consistency = Hashtbl.create 16;
    prepared = Hashtbl.create 16;
    cache = Cache.create ?max_entries:cache_entries ?max_weight:cache_weight ();
    budget;
    requests = Atomic.make 0;
    frozen_span = None;
    stats_hook = None;
    wal = None;
    created = Unix.gettimeofday ();
  }

let budget t = t.budget
let cache t = t.cache
let tbox t = t.tbox
let abox t = t.abox
let close (_ : t) = ()

let count_request t = Atomic.incr t.requests

let set_stats_hook t hook = with_lock t (fun () -> t.stats_hook <- Some hook)
let attach_wal t wal = with_lock t (fun () -> t.wal <- Some wal)
let detach_wal t = with_lock t (fun () -> t.wal <- None)
let wal t = with_lock t (fun () -> t.wal)
let uptime t = Unix.gettimeofday () -. t.created

(* Log under the lock, before applying: a WAL failure leaves the store
   untouched and the request unacknowledged, so the recoverable prefix is
   exactly the acknowledged prefix. *)
let wal_log t mutation ~revision =
  match t.wal with Some wal -> Wal.append wal mutation ~revision | None -> ()

let load_ontology t tbox =
  with_lock t (fun () ->
      wal_log t (Wal.Load_ontology tbox) ~revision:(Abox.revision t.abox);
      t.tbox <- Some tbox;
      (* Prepared queries were rewritten against the previous TBox. *)
      Hashtbl.reset t.prepared;
      t.generation <- t.generation + 1;
      Hashtbl.reset t.consistency)

let load_data t abox =
  with_lock t (fun () ->
      wal_log t (Wal.Load_data abox) ~revision:(Abox.revision abox);
      t.abox <- abox;
      t.generation <- t.generation + 1;
      Hashtbl.reset t.consistency)

let assert_facts t facts =
  with_lock t (fun () ->
      (* the facts that will actually change the store, deduplicated:
         these are what the WAL records and what [added] counts *)
      let effective =
        List.rev
          (List.fold_left
             (fun acc fact ->
               if Abox.mem_fact t.abox fact || List.mem fact acc then acc
               else fact :: acc)
             [] facts)
      in
      let added = List.length effective in
      if added > 0 then
        wal_log t (Wal.Assert effective)
          ~revision:(Abox.revision t.abox + added);
      List.iter (Abox.add_fact t.abox) effective;
      (added, Abox.num_atoms t.abox))

let retract_facts t facts =
  with_lock t (fun () ->
      let effective =
        List.rev
          (List.fold_left
             (fun acc fact ->
               if Abox.mem_fact t.abox fact && not (List.mem fact acc) then
                 fact :: acc
               else acc)
             [] facts)
      in
      let removed = List.length effective in
      if removed > 0 then
        wal_log t (Wal.Retract effective)
          ~revision:(Abox.revision t.abox + removed);
      List.iter (fun fact -> ignore (Abox.remove_fact t.abox fact)) effective;
      (removed, Abox.num_atoms t.abox))

(* Checkpoint capture and write, both under the session lock.  WAL appends
   also happen under the lock, so nothing can slip between the state the
   checkpoint serializes and the log truncation it performs. *)
let checkpoint t wal =
  with_lock t (fun () ->
      let prepared =
        Hashtbl.fold
          (fun name p acc ->
            (name, Prepared.algorithm p,
             Parse.query_to_string (Prepared.omq p).Omq.cq)
            :: acc)
          t.prepared []
        |> List.sort compare
      in
      Wal.checkpoint wal ~tbox:t.tbox ~abox:t.abox ~prepared)

let assert_fact t fact = fst (assert_facts t [ fact ]) = 1
let retract_fact t fact = fst (retract_facts t [ fact ]) = 1

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = {
  sdata : Abox.t;
  srev : int;
  sgen : int;
  stbox : Tbox.t option;
}

let snapshot_abox s = s.sdata
let snapshot_revision s = s.srev

let freeze t =
  Fault.hit Fault.abox_snapshot;
  with_lock t (fun () ->
      let rev = Abox.revision t.abox in
      t.frozen_span <-
        (match t.frozen_span with
        | None -> Some (rev, rev)
        | Some (lo, hi) -> Some (min lo rev, max hi rev));
      {
        sdata = Abox.snapshot t.abox;
        srev = rev;
        sgen = t.generation;
        stbox = t.tbox;
      })

let frozen_span t = with_lock t (fun () -> t.frozen_span)

let consistent_at t (s : snapshot) =
  match s.stbox with
  | None -> true
  | Some tbox -> (
    let key = (s.sgen, s.srev) in
    match with_lock t (fun () -> Hashtbl.find_opt t.consistency key) with
    | Some verdict -> verdict
    | None ->
      (* computed outside the lock on the frozen tables; racing readers of
         the same revision compute the same verdict, so the blind replace
         below is idempotent *)
      let verdict =
        Obs.with_span "chase.consistency" (fun () ->
            Abox.consistent tbox s.sdata)
      in
      with_lock t (fun () ->
          if Hashtbl.length t.consistency >= memo_bound then
            Hashtbl.reset t.consistency;
          Hashtbl.replace t.consistency key verdict);
      verdict)

let consistent t = consistent_at t (freeze t)

let consistency_cached t =
  match t.tbox with
  | None -> Some true
  | Some _ ->
    with_lock t (fun () ->
        Hashtbl.find_opt t.consistency
          (t.generation, Abox.revision t.abox))

let require_tbox t =
  match t.tbox with
  | Some tbox -> tbox
  | None -> Error.internal "no ontology loaded (use LOAD ONTOLOGY first)"

let prepare ?budget t ~name ?algorithm cq =
  let tbox = require_tbox t in
  with_lock t (fun () ->
      let prepared, origin =
        Prepared.prepare ?budget ~cache:t.cache ~name ?algorithm tbox cq
      in
      Hashtbl.replace t.prepared name prepared;
      (prepared, origin))

let find_prepared t name =
  with_lock t (fun () -> Hashtbl.find_opt t.prepared name)

let prepared_names t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.prepared [])
  |> List.sort compare

let answer_at ?budget t p s =
  if not (consistent_at t s) then Omq.all_tuples s.sdata (Prepared.arity p)
  else
    Eval.answers ?budget ~plan:(Prepared.plan p) (Prepared.rewriting p)
      s.sdata

let answer ?budget t p = answer_at ?budget t p (freeze t)

let stats t =
  (* Capture the hook under the lock (it is written under the lock by
     [set_stats_hook]), but invoke it only after release: the server's
     hook takes its own mutex, and holding both invites lock-order
     trouble. *)
  let base, hook =
    with_lock t (fun () ->
        let wal_rows =
          match t.wal with Some wal -> Wal.stats_rows wal | None -> []
        in
        let consistent =
          if t.tbox = None then Some true
          else
            Hashtbl.find_opt t.consistency (t.generation, Abox.revision t.abox)
        and axioms =
          match t.tbox with None -> 0 | Some tb -> List.length (Tbox.axioms tb)
        in
        ( Exposition.
            [
              Counter ("requests", Atomic.get t.requests);
              Gauge ("ontology.loaded", Bool (Some (t.tbox <> None)));
              Gauge ("ontology.axioms", Int axioms);
              Gauge ("data.atoms", Int (Abox.num_atoms t.abox));
              Gauge ("data.individuals", Int (Abox.num_individuals t.abox));
              Gauge ("data.revision", Int (Abox.revision t.abox));
              Gauge ("consistent", Bool consistent);
              Gauge ("prepared", Int (Hashtbl.length t.prepared));
              Gauge ("cache.entries", Int (Cache.length t.cache));
              Gauge ("cache.weight", Int (Cache.weight t.cache));
              Counter ("cache.hits", Cache.hits t.cache);
              Counter ("cache.misses", Cache.misses t.cache);
              Counter ("cache.evictions", Cache.evictions t.cache);
            ]
          @ wal_rows,
          t.stats_hook ))
  in
  match hook with None -> base | Some hook -> base @ hook ()
