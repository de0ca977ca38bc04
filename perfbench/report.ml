(* What a run reports: the metric values with their units, the operation
   counts, and the provenance printed with every result. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type t = {
  attempted : int;
  failed : int;
  checks_failed : string list;  (** correctness checks that did not hold *)
  metrics : metric list;
  info : (string * string) list;  (** workload sizes and settings *)
}

(* The peak resident set of this process, from /proc/self/status (VmHWM). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* A digest of the library and executable sources, so results from a
   checkout without git history still name the code they measured. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
          then [ p ]
          else [])
        (Array.to_list entries)
  in
  let all = files "lib" @ files "bin" in
  if all = [] then "unknown"
  else
    Digest.to_hex
      (Digest.string
         (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

let provenance ~workload ~seed ~traced =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("traced", string_of_bool traced);
    ("git_rev", command_output "git rev-parse --short HEAD");
    ("source_digest", source_digest ());
    ("hostname", (try Unix.gethostname () with _ -> "unknown"));
    ("nproc", command_output "nproc");
    ("ocaml", Sys.ocaml_version);
  ]
