(* The benchmark's harness: one run of one workload.

     perfbench.exe --workload paper-tables|serve-write
                   --seed N --seconds S --trace 0|1
                   --obda PATH --work DIR
     perfbench.exe --print-digests

   Run from the repository root (perfbench/run.py builds and calls it).
   Prints the provenance, the workload's sizes and every metric with its
   unit, then, as the last line, the JSON result
   {"correct", "attempted", "failed", "metrics"}; exits 1 when a
   correctness check failed. *)

module Json = Obda_obs.Json

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --obda PATH --work DIR \
     | --print-digests";
  exit 124

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--print-digests" ] then begin
    Paper_tables.print_digests ();
    exit 0
  end;
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" and work = get "work" in
  let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
  let traced = get "trace" = "1" in
  let obda = if Filename.is_relative (get "obda") then Filename.concat (Sys.getcwd ()) (get "obda") else get "obda" in
  let provenance = Report.provenance ~workload ~seed ~traced in
  let run () =
    match workload with
    | "paper-tables" ->
      let pins = Paper_tables.load_pins () in
      Sys.chdir work;
      Paper_tables.run ~pins ~seed ~seconds ~traced
    | "serve-write" ->
      Sys.chdir work;
      Serve.run ~obda ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let r = run () in
  let strings kvs = Json.to_string (Json.Assoc (List.map (fun (k, v) -> (k, Json.String v)) kvs)) in
  print_endline ("# provenance " ^ strings provenance);
  print_endline ("# workload " ^ strings r.Report.info);
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "# %-36s %24.17g %s\n" m.Report.name m.Report.value m.Report.unit_)
    r.Report.metrics;
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) r.Report.checks_failed;
  let correct = r.Report.checks_failed = [] && r.Report.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Report.attempted);
            ("failed", Json.Int r.Report.failed);
            ( "metrics",
              Json.Assoc
                (List.map
                   (fun (m : Report.metric) ->
                     ( m.Report.name,
                       Json.Assoc
                         [ ("value", Json.Float m.Report.value); ("unit", Json.String m.Report.unit_) ] ))
                   r.Report.metrics) );
          ]));
  exit (if correct then 0 else 1)
