(* The benchmark's own arithmetic: order statistics and means.

   Percentiles are nearest-rank over the sorted samples (the p-th
   percentile of n samples is the ceil(p/100 * n)-th smallest), so a
   reported latency is always one that was actually measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples *)
let rank p n = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let nearest_rank p xs =
  match xs with
  | [] -> invalid_arg "Arith.nearest_rank: no samples"
  | _ ->
    let a = sorted xs in
    a.(rank p (Array.length a) - 1)

let median xs = nearest_rank 50.0 xs

(* The tail percentiles a run may report, highest first.  p90 is the
   top: the metric is named after it. *)
let tail_ladder = [ 90.0; 75.0; 50.0 ]

(* The highest percentile of [tail_ladder] with at least [beyond]
   samples strictly above its rank; [None] when even the median has
   fewer.  With the default ten, p90 needs 100 samples. *)
let tail_percentile ?(beyond = 10) n =
  List.find_opt (fun p -> n - rank p n >= beyond) tail_ladder

let mean = function
  | [] -> invalid_arg "Arith.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Arith.geomean: no samples"
  | xs ->
    if List.exists (fun x -> x <= 0.0) xs then
      invalid_arg "Arith.geomean: non-positive sample";
    exp (mean (List.map log xs))

let ratio num den = if den = 0.0 then 0.0 else num /. den
