(** Deterministic, splittable pseudo-random number generator.

    All randomness in the library flows through values of type {!t} passed
    explicitly, so every experiment is reproducible from a single seed.  The
    generator is splitmix64 (Steele–Lea–Flood) seeding a xoshiro256++ state;
    it is fast, has a 256-bit state, and passes BigCrush.  It is {e not}
    cryptographic. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. Different seeds yield independent-looking streams. *)

val derive : seed:int -> int -> t
(** [derive ~seed i] is the generator of entity [i] under master seed
    [seed]: a splitmix64-style finalizer mixes the pair into a fresh
    {!create}-style state.  Unlike {!split} it is a {e pure} function of
    [(seed, i)] — deriving entity [i]'s stream never consumes anyone
    else's randomness — so a local-access oracle can replay exactly the
    stream a batch pass consumed for entity [i], in any order, at any
    time.  Every G_Δ builder and the replay oracle mark through this
    derivation ([Mark_kernel.sampled_indices_into], bit-for-bit). *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state;
    advancing one does not affect the other. *)

val state : t -> int64 array
(** The current 4-word xoshiro256++ state, for checkpointing.  Restoring
    it with {!of_state} resumes the stream at exactly this position, so
    replay after recovery is bit-for-bit identical. *)

val of_state : int64 array -> t
(** Inverse of {!state}.
    @raise Invalid_argument unless given exactly 4 words, not all zero
    (the xoshiro fixed point). *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream.  Used to give each vertex
    of a distributed simulation its own local randomness. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits62 : t -> int
(** Next output truncated to 62 non-negative bits — the word every integer
    draw below is built from. *)

val fill_bits62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_bits62 t a ~pos ~len] writes the next [len] {!bits62} words into
    [a.(pos .. pos+len-1)]: the same words, in the same order, as [len]
    calls to {!bits62}, leaving the generator in the identical state.  The
    batched sampler ({!Sampling.sample_indices}) prefetches a vertex's
    words through one such call and then runs on plain array reads instead
    of interleaving generator steps with the marking loop.
    @raise Invalid_argument if the range is out of bounds. *)

val int_with : next:(unit -> int) -> int -> int
(** [int_with ~next bound] is {!int} computed over an externally supplied
    {!bits62}-word stream: power-of-two bounds consume exactly one word,
    other bounds apply the same rejection rule to successive words.
    Feeding it the words of a generator's stream in order reproduces
    {!int} on that generator bit for bit, including how many words are
    consumed — the contract the batched sampler relies on.
    @raise Invalid_argument if [bound <= 0]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Uses rejection sampling, so there is no modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]]. Requires
    [lo <= hi].
    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val sample_distinct : t -> k:int -> n:int -> int array
(** [sample_distinct t ~k ~n] draws [min k n] distinct integers uniformly
    from [\[0, n)], in the order they were drawn (a uniformly random
    [min k n]-permutation prefix).  O(k) time and space via a virtual
    Fisher–Yates over a hashtable.
    @raise Invalid_argument if [n < 0]. *)

val perm : t -> int -> int array
(** [perm t n] is a uniformly random permutation of [0..n-1]. *)
