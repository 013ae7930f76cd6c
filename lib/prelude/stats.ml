let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  median : float;
  max : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let lo, hi = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = lo;
    median = median xs;
    max = hi;
  }
