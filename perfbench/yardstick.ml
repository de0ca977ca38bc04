(* The host's speed, measured with a fixed computation of the benchmark's
   own that calls none of the program's code.

   The shared host the benchmark was defined on changes speed from minute
   to minute: in some minutes every cell of paper-tables, and a fixed
   loop, ran about 40% slower than in others.  Dividing a latency by the
   yardstick timed in the same seconds removes much of that common factor
   when it is the cores' speed that changed: a latency "at reference
   speed" is the measured one times [reference_s] over the yardstick's
   time.  It does not follow the memory's speed or a neighbour taking a
   core, and at times it runs faster while the program does not
   (perfbench/WORKLOADS.md gives the measurements).  The yardstick
   allocates nothing, so no change to the program, its allocation or its
   GC settings can move it. *)

(* One yardstick: 2,000,000 integer hashes, about 17 ms on the 2-core host
   the benchmark was defined on. *)
let work () =
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := !acc + (Hashtbl.hash (i * 7919) land 0xff)
  done;
  ignore (Sys.opaque_identity !acc)

(* The yardstick's time at reference speed: its median on the defining
   host in a quiet minute.  Fixed, so that the figures of different runs
   and commits compare. *)
let reference_s = 0.017

(* Samples: (when one started, the seconds it took), newest first. *)
type t = { mutable samples : (float * float) list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

let sample y =
  let t0 = Unix.gettimeofday () in
  work ();
  let t1 = Unix.gettimeofday () in
  y.samples <- (t0, t1 -. t0) :: y.samples;
  y.last <- t1

(* Take a sample unless one was taken in the last half second. *)
let maybe_sample y = if Unix.gettimeofday () -. y.last >= 0.5 then sample y

(* The median time over all samples. *)
let median y =
  match y.samples with [] -> reference_s | l -> Stats.median (List.map snd l)

(* The median among the samples within 3 s of [at] (over all samples
   when none is that close). *)
let around y at =
  match List.filter (fun (t, _) -> Float.abs (t -. at) <= 3.) y.samples with
  | [] -> median y
  | near -> Stats.median (List.map snd near)

(* [seconds] measured from [start], at reference speed. *)
let scale y ~start seconds = seconds *. reference_s /. around y (start +. (seconds /. 2.))
