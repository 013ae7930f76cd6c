(** Small statistics helpers for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean. 0. on the empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0. for fewer than two
    samples. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], nearest-rank on a sorted copy.
    @raise Invalid_argument on the empty array. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  median : float;
  max : float;
}

val summarize : float array -> summary
(** @raise Invalid_argument on the empty array. *)
