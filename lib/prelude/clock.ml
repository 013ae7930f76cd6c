(* CLOCK_MONOTONIC: a wall-clock step (NTP, an operator's date -s) must
   neither fire timeouts early nor skew a measured duration. *)
let now_ns () = Monotonic_clock.now ()

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, Int64.sub t1 t0)

let ns_to_ms ns = Int64.to_float ns /. 1e6
