(* Fixed log-bucketed histograms: the third telemetry pillar.

   Spans tell you where one request spent its time; counters tell you how
   much total work was done; histograms tell you how latency and size are
   *distributed* under concurrency — the quantity ROADMAP perf items move.

   Design constraints, in order:
   - recording must be lock-free and shareable across domains (the server
     records from every connection worker), so buckets are [int Atomic.t];
   - the disabled path must cost one load and one branch, the same ≤5 ns
     discipline [Obs] and [Fault] already pin in the obs-overhead bench;
   - merging must be exact and associative (bucket-wise integer sums), so
     per-client histograms combine in any order.

   Buckets are logarithmic with ratio 2^(1/4) (~19% relative width): value
   [v] lands in the bucket whose upper bound is the smallest [2^(k/4) >= v].
   The bucket index is computed from [Float.frexp] and three mantissa
   comparisons — no [log] call on the record path. *)

(* Bucket i (0 <= i < buckets - 1) holds values in (2^((i-offset-1)/4),
   2^((i-offset)/4)]; bucket 0 additionally absorbs everything below its
   bound and the last bucket is the +Inf overflow.  offset = 120 puts
   bucket 0's upper bound at 2^-30 (~1 ns when recording seconds) and the
   last finite bound at 2^39.5 (~7.8e11 — flexible enough for seconds or
   bytes). *)
let buckets = 280
let offset = 120

let ratio = Float.pow 2. 0.25

let bucket_upper i =
  if i >= buckets - 1 then Float.infinity
  else Float.pow 2. (float_of_int (i - offset) /. 4.)

(* Mantissa thresholds 2^(-3/4), 2^(-1/2), 2^(-1/4): with [frexp v = (m, e)]
   and m in [0.5, 1), ceil(4 * log2 v) = 4e + s where s is -4 for m = 0.5,
   then -3 / -2 / -1 / 0 per quarter-octave. *)
let m34 = Float.pow 2. (-0.75)
let m12 = Float.pow 2. (-0.5)
let m14 = Float.pow 2. (-0.25)

let bucket_of v =
  if not (v > 0.) then 0 (* <= 0 and NaN clamp low *)
  else begin
    let m, e = Float.frexp v in
    let s =
      if m <= 0.5 then -4
      else if m <= m34 then -3
      else if m <= m12 then -2
      else if m <= m14 then -1
      else 0
    in
    let i = offset + (4 * e) + s in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i
  end

type t = {
  name : string;
  scale : float; (* sum is accumulated in integer units of 1/scale *)
  counts : int Atomic.t array;
  sum : int Atomic.t;
}

(* One process-global flag, read with a plain atomic load: disarmed
   [record] is a load and a branch, exactly like [Fault.hit] with no plan
   armed.  Enabled by the server / bench / CLI, not by library code. *)
let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let recording () = Atomic.get enabled

let create ?(scale = 1e6) name =
  {
    name;
    scale;
    counts = Array.init buckets (fun _ -> Atomic.make 0);
    sum = Atomic.make 0;
  }

let name t = t.name

let record_unconditionally t v =
  ignore (Atomic.fetch_and_add t.counts.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add t.sum (int_of_float ((v *. t.scale) +. 0.5)))

let record t v =
  if Atomic.get enabled then record_unconditionally t v

let merge_into ~into src =
  for i = 0 to buckets - 1 do
    let n = Atomic.get src.counts.(i) in
    if n > 0 then ignore (Atomic.fetch_and_add into.counts.(i) n)
  done;
  let s = Atomic.get src.sum in
  if s <> 0 then ignore (Atomic.fetch_and_add into.sum s)

let reset t =
  for i = 0 to buckets - 1 do
    Atomic.set t.counts.(i) 0
  done;
  Atomic.set t.sum 0

type snapshot = {
  sname : string;
  scounts : int array;
  total : int;
  sum : float; (* in recorded-value units *)
}

let snapshot t =
  let scounts = Array.map Atomic.get t.counts in
  {
    sname = t.name;
    scounts;
    total = Array.fold_left ( + ) 0 scounts;
    sum = float_of_int (Atomic.get t.sum) /. t.scale;
  }

(* Smallest value [u] such that at least [ceil (q * total)] recorded values
   are <= u — the upper bound of the bucket holding the rank-[ceil (q *
   total)] smallest recorded value.  Any exact recorded value at that rank
   lies in (u / ratio, u], which is the "one bucket's relative error"
   contract the serve-load harness asserts. *)
let quantile s q =
  if s.total = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.total))) in
    let rec find i acc =
      if i >= buckets - 1 then bucket_upper i
      else
        let acc = acc + s.scounts.(i) in
        if acc >= rank then bucket_upper i else find (i + 1) acc
    in
    find 0 0
  end

(* ------------------------------------------------------------------ *)
(* The process-wide named-histogram registry: what METRICS exposes. *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let registered ?scale name =
  Mutex.lock registry_mutex;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None ->
      let t = create ?scale name in
      Hashtbl.add registry name t;
      t
  in
  Mutex.unlock registry_mutex;
  t

let snapshots () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.map snapshot all
  |> List.sort (fun a b -> compare a.sname b.sname)
