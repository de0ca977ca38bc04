(* Prometheus-style text exposition of the running service.

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

(* Stats rows whose value only ever increases — everything else is a
   gauge. *)
let counter_rows =
  [
    "requests"; "cache.hits"; "cache.misses"; "cache.evictions";
    "server.connections.accepted"; "server.connections.shed";
    "server.requests.served"; "server.requests.shed";
    "server.wal.appended"; "server.wal.bytes"; "server.wal.syncs";
    "server.wal.checkpoints";
  ]

let row_kind key = if List.mem key counter_rows then "counter" else "gauge"

(* ["lo-hi"] span rows (the snapshot revision span) become two samples. *)
let span_value v =
  match String.index_opt v '-' with
  | Some i when i > 0 -> (
    match
      ( int_of_string_opt (String.sub v 0 i),
        int_of_string_opt (String.sub v (i + 1) (String.length v - i - 1)) )
    with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None)
  | _ -> None

(* A stats row as exposition samples: numbers pass through, yes/no become
   1/0, span rows split into _lo/_hi, anything else ("unknown", "-") is
   unrepresentable and skipped. *)
let row_samples (key, value) =
  let name = sanitize key in
  let sample v = [ (row_kind key, name, v) ] in
  match float_of_string_opt value with
  | Some v -> sample v
  | None -> (
    match String.lowercase_ascii value with
    | "yes" | "true" -> sample 1.
    | "no" | "false" -> sample 0.
    | _ -> (
      match span_value value with
      | Some (lo, hi) ->
        [
          ("gauge", name ^ "_lo", float_of_int lo);
          ("gauge", name ^ "_hi", float_of_int hi);
        ]
      | None -> []))

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
    (fun row ->
      List.iter
        (fun (kind, name, v) ->
          Printf.bprintf buf "# TYPE %s %s\n" name kind;
          Printf.bprintf buf "%s %.9g\n" name v)
        (row_samples row))
    rows;
  List.iter (add_histogram buf) (Histogram.snapshots ());
  Buffer.contents buf
