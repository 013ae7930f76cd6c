(* Monotonic nanosecond clock for every timing the benchmark takes: a
   wall-clock step must not show up as latency. *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_int (Int64.sub (now_ns ()) t0)
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
