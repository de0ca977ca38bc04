(* Order statistics over the samples of one run. *)

(* The value of rank ceil(q·n) (1-based) of the sorted samples — the same
   rank convention as [Obda_obs.Histogram.quantile]. *)
let percentile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    a.(min (n - 1) (rank - 1))

let median samples = percentile samples 0.5

let sum = List.fold_left ( +. ) 0.
let sum_int = List.fold_left ( + ) 0
let minimum = List.fold_left Float.min infinity

(* The geometric mean: every sample weighs the same in ratio terms, so a
   mix of cheap and expensive queries has no gap for it to fall into. *)
let gmean samples =
  exp (sum (List.map log samples) /. float_of_int (List.length samples))
