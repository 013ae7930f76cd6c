(* Bounded LRU memoization for the replay oracle: int keys (vertices, or
   packed edge codes), one int word per entry packing the stamp it was
   computed at with an answer bit, O(1) expected per operation.

   The key index is linear probing over a power-of-two table at most
   half full, deleting by backward shift, so lookups never meet a
   tombstone and the table never needs a rebuild.  The recency list is
   threaded through two int arrays over fixed slots.  Nothing here
   allocates after [create], so [find] and [put] can sit on the query
   hot path, and every hit/miss/eviction/invalidation is counted,
   because the whole point of the cache is a measurable amortization
   claim (bench_csv/lca-query.csv).

   Staleness is the caller's: [find ~since] treats an entry stamped
   before [since] as a miss and drops it there, so the oracle
   invalidates by bumping a per-vertex stamp or a floor, in O(1). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;
}

type t = {
  capacity : int;
  hshift : int; (* int_size - log2 (index size) *)
  mask : int; (* index size - 1; index size >= 2 * capacity *)
  index : int array; (* probe table: slot, or -1 for an empty cell *)
  keys : int array; (* slot -> key *)
  words : int array; (* slot -> (stamp lsl 1) lor answer bit *)
  (* doubly-linked recency list over slots; free slots threaded through
     [next] *)
  prev : int array;
  next : int array;
  mutable head : int; (* most recently used; -1 when empty *)
  mutable tail : int; (* least recently used *)
  mutable free : int; (* free-list head; -1 when full *)
  mutable len : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  let size = 1 lsl !bits in
  {
    capacity;
    hshift = Sys.int_size - !bits;
    mask = size - 1;
    index = Array.make size (-1);
    keys = Array.make capacity 0;
    words = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next =
      Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else -1);
    head = -1;
    tail = -1;
    free = 0;
    len = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.capacity
let length t = t.len

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    invalidations = t.invalidations;
  }

(* Multiplicative hashing: the top log2(index size) bits of key * odd
   constant.  Packed edge codes differ mostly in their low bits, which
   this mixes into the top. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr t.hshift

(* The table is at most half full, so no probe run wraps all the way
   round.  If one did, the index is corrupt, and failing beats spinning
   forever on a query. *)
let corrupt () = failwith "Cache: corrupt index (no empty cell)"

(* Index cell of [k]: the one naming its slot, or the empty cell that
   ends its probe run. *)
let rec probe t k i left =
  let s = Array.unsafe_get t.index i in
  if s < 0 || Array.unsafe_get t.keys s = k then i
  else if left = 0 then corrupt ()
  else probe t k ((i + 1) land t.mask) (left - 1)

let locate t k = probe t k (home t k) t.mask

(* Backward-shift deletion: [hole] was just vacated; pull each later
   member of the probe run back over it when its home cell allows, so
   every remaining key stays reachable from its home. *)
let rec shift_back t hole j left =
  let s = Array.unsafe_get t.index j in
  if s < 0 then Array.unsafe_set t.index hole (-1)
  else if left = 0 then corrupt ()
  else begin
    let h = home t (Array.unsafe_get t.keys s) in
    let j' = (j + 1) land t.mask in
    if (j - h) land t.mask >= (j - hole) land t.mask then begin
      Array.unsafe_set t.index hole s;
      shift_back t j j' (left - 1)
    end
    else shift_back t hole j' (left - 1)
  end

(* recency-list surgery: all O(1), no allocation *)

let unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p >= 0 then Array.unsafe_set t.next p n else t.head <- n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.tail <- p

let push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.head;
  if t.head >= 0 then Array.unsafe_set t.prev t.head s else t.tail <- s;
  t.head <- s

let touch t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* Drop the entry in slot [s], indexed at cell [i], onto the free list. *)
let drop t i s =
  shift_back t i ((i + 1) land t.mask) t.mask;
  unlink t s;
  Array.unsafe_set t.next s t.free;
  t.free <- s;
  t.len <- t.len - 1

let find t ~since k =
  let i = locate t k in
  let s = Array.unsafe_get t.index i in
  if s < 0 then begin
    t.misses <- t.misses + 1;
    -1
  end
  else if Array.unsafe_get t.words s asr 1 < since then begin
    (* computed before the caller's floor: stale, drop it now *)
    drop t i s;
    t.invalidations <- t.invalidations + 1;
    t.misses <- t.misses + 1;
    -1
  end
  else begin
    t.hits <- t.hits + 1;
    touch t s;
    s
  end
[@@hot]

let bit t s = Array.unsafe_get t.words s land 1 = 1

let put t ~stamp k b =
  let word = (stamp lsl 1) lor Bool.to_int b in
  let i = locate t k in
  let s = Array.unsafe_get t.index i in
  if s >= 0 then begin
    Array.unsafe_set t.words s word;
    touch t s;
    s
  end
  else begin
    let i =
      if t.free >= 0 then i
      else begin
        (* full: evict the least recently used entry, then probe again,
           since the backward shift may have moved [k]'s empty cell *)
        let v = t.tail in
        let kv = Array.unsafe_get t.keys v in
        drop t (locate t kv) v;
        t.evictions <- t.evictions + 1;
        locate t k
      end
    in
    let s = t.free in
    t.free <- Array.unsafe_get t.next s;
    t.len <- t.len + 1;
    Array.unsafe_set t.keys s k;
    Array.unsafe_set t.words s word;
    Array.unsafe_set t.index i s;
    push_front t s;
    t.insertions <- t.insertions + 1;
    s
  end
[@@hot]
