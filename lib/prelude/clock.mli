(** Monotonic time for timing and timeouts. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock (CLOCK_MONOTONIC, via
    [bechamel.monotonic_clock]).  Only differences are meaningful: the
    origin is arbitrary, and a wall-clock step does not move it. *)

val time_ns : (unit -> 'a) -> 'a * int64
(** [time_ns f] runs [f] and returns its result with the elapsed
    nanoseconds. *)

val ns_to_ms : int64 -> float
