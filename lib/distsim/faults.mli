(** Seeded, deterministic fault plans for the network simulator.

    A plan bundles the classic message-level and processor-level fault
    modes of the distributed-computing literature:

    - {b drop}: each sent message is lost independently with a fixed
      probability (fair-lossy links);
    - {b duplicate}: each delivered message is duplicated with a fixed
      probability (at-least-once links);
    - {b reorder}: bounded reordering — within every window of [w]
      consecutive messages of one inbox the arrival order is a random
      permutation, so a message can be displaced by at most [w-1]
      positions (FIFO links are [w = 1]);
    - {b crashed}: a set of processors that are crash-faulty from round 0
      (they send nothing and read nothing; a local failure detector lets
      neighbors query {!Network.is_crashed});
    - {b straggler}: per-processor delivery delay — every message {e from}
      a straggler arrives a fixed number of rounds late.

    All randomness comes from an {!Rng.split} of the generator supplied
    to {!plan}, so a faulty execution is exactly reproducible from the
    plan's seed while remaining independent of the algorithm's own
    randomness.  The plan is consulted only by {!Network}; a network
    created without a plan never touches any of this code (bit-for-bit
    fault-free behaviour). *)

open Mspar_prelude

type t
(** A fault plan: immutable configuration plus a private generator. *)

type report = { dropped : int; duplicated : int; delayed : int }
(** Fault counters, metered by the network next to rounds/messages/bits. *)

val add_report : report -> report -> report

val plan :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:int ->
  ?crashed:int list ->
  ?straggler:(int * int) list ->
  Rng.t ->
  t
(** [plan rng] splits [rng] for the plan's private randomness.  Defaults
    are all-benign: [drop = 0.], [duplicate = 0.], [reorder = 1] (FIFO),
    [crashed = \[\]], [straggler = \[\]] (pairs are [(vertex, delay)] with
    [delay >= 1] rounds).
    @raise Invalid_argument on probabilities outside [0, 1), [reorder < 1]
    or a non-positive straggler delay. *)

(** {2 Queries (used by {!Network})} *)

val drop_p : t -> float
val duplicate_p : t -> float

val reorder_window : t -> int
(** At least 1; 1 means no reordering. *)

val crashed_list : t -> int list

val delay_of : t -> int -> int
(** [delay_of t v] is the delivery delay in rounds for messages sent by
    [v] (0 for non-stragglers). *)

val flip : t -> float -> bool
(** Bernoulli draw from the plan's private generator. *)

val shuffle : t -> 'a array -> unit
(** In-place shuffle with the plan's private generator. *)
