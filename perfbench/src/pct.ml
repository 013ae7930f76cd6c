(* Percentile selection under the "at least ten samples beyond it" rule:
   a tail percentile is only reported when enough samples lie strictly
   above the selected one to make it more than an outlier.  Quantiles are
   given in per-mille so the rank arithmetic stays exact (0.99 *. 1000.
   is not 990 in floating point). *)

let min_beyond = 10

(* nearest-rank: the 0-based index of the smallest sample with at least
   [permille]/1000 of the samples at or below it *)
let rank ~n ~permille =
  if n <= 0 then invalid_arg "Pct.rank: no samples";
  if permille < 0 || permille > 1000 then invalid_arg "Pct.rank: permille";
  Int.max 0 (((permille * n) + 999) / 1000 - 1)

let beyond ~n ~permille = n - 1 - rank ~n ~permille

(* smallest sample count for which [permille] has [min_beyond] samples
   above it *)
let samples_needed ~permille =
  let rec go n = if beyond ~n ~permille >= min_beyond then n else go (n + 1) in
  go 1

type t = {
  n : int;  (** samples *)
  p50 : float;
  p99 : float option;  (** [None] when fewer than ten samples lie beyond it *)
}

let select_sorted sorted ~permille =
  sorted.(rank ~n:(Array.length sorted) ~permille)

let of_samples samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.of_samples: no samples";
  {
    n;
    p50 = select_sorted sorted ~permille:500;
    p99 =
      (if beyond ~n ~permille:990 >= min_beyond then
         Some (select_sorted sorted ~permille:990)
       else None);
  }

let median xs = (of_samples xs).p50
