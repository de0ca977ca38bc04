(* The service's typed metric rows, and their Prometheus-style text
   exposition.

   One render = the caller's stats rows (counters and gauges) followed by
   every histogram in the process-wide registry, as the standard
   line-oriented format:

     # TYPE obda_requests counter
     obda_requests 42
     # TYPE obda_serve_answer_latency histogram
     obda_serve_answer_latency_bucket{le="0.000244141"} 3
     obda_serve_answer_latency_bucket{le="+Inf"} 17
     obda_serve_answer_latency_sum 0.0123
     obda_serve_answer_latency_count 17

   Buckets are cumulative and only the non-empty ones are written (plus
   the mandatory +Inf line), so a render stays small even though each
   histogram has hundreds of buckets.  Latency histograms record seconds.

   The render is guarded by the [obs.export] fault site: an injected
   fault surfaces as the in-protocol ERR of the METRICS request, leaving
   the session and connection usable — the chaos suite proves it. *)

module Fault = Obda_runtime.Fault

let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "obda_" ^ Bytes.to_string b

type value =
  | Int of int
  | Float of { value : float; decimals : int }
  | Bool of bool option
  | Span of (int * int) option

type row = Counter of string * int | Gauge of string * value

let stats_line = function
  | Counter (name, n) | Gauge (name, Int n) -> Printf.sprintf "%s %d" name n
  | Gauge (name, Float { value; decimals }) ->
    Printf.sprintf "%s %.*f" name decimals value
  | Gauge (name, Bool (Some b)) -> name ^ if b then " yes" else " no"
  | Gauge (name, Bool None) -> name ^ " unknown"
  | Gauge (name, Span (Some (lo, hi))) -> Printf.sprintf "%s %d-%d" name lo hi
  | Gauge (name, Span None) -> name ^ " -"

(* A row as samples under its STATS name: the one conversion [render]
   and [publish] share. *)
let samples = function
  | Counter (name, n) -> [ (name, Obs.Counter, Obs.Int n) ]
  | Gauge (name, Int n) -> [ (name, Obs.Gauge, Obs.Int n) ]
  | Gauge (name, Float { value; _ }) -> [ (name, Obs.Gauge, Obs.Float value) ]
  | Gauge (name, Bool (Some b)) -> [ (name, Obs.Gauge, Obs.Int (Bool.to_int b)) ]
  | Gauge (name, Span (Some (lo, hi))) ->
    [ (name ^ "_lo", Obs.Gauge, Obs.Int lo); (name ^ "_hi", Obs.Gauge, Obs.Int hi) ]
  | Gauge (_, (Bool None | Span None)) -> []

let publish rows =
  if Obs.enabled () then
    List.iter
      (fun (name, kind, v) ->
        match (kind, v) with
        | Obs.Counter, Obs.Int n -> Obs.count name n
        | _, Obs.Int n -> Obs.set_int name n
        | _, Obs.Float f -> Obs.set_float name f)
      (List.concat_map samples rows)

let add_histogram buf (s : Histogram.snapshot) =
  let name = sanitize s.sname in
  Printf.bprintf buf "# TYPE %s histogram\n" name;
  let cumulative = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 && i < Histogram.buckets - 1 then begin
        cumulative := !cumulative + n;
        Printf.bprintf buf "%s_bucket{le=\"%.9g\"} %d\n" name
          (Histogram.bucket_upper i) !cumulative
      end)
    s.scounts;
  Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name s.total;
  Printf.bprintf buf "%s_sum %.9g\n" name s.sum;
  Printf.bprintf buf "%s_count %d\n" name s.total

let render rows =
  Fault.hit Fault.obs_export;
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, kind, v) ->
      let name = sanitize name in
      Printf.bprintf buf "# TYPE %s %s\n" name
        (match kind with Obs.Counter -> "counter" | Obs.Gauge -> "gauge");
      Printf.bprintf buf "%s %.9g\n" name
        (match v with Obs.Int n -> float_of_int n | Obs.Float f -> f))
    (List.concat_map samples rows);
  List.iter (add_histogram buf) (Histogram.snapshots ());
  Buffer.contents buf
