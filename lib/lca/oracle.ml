open Mspar_prelude
open Mspar_graph
open Mspar_core

(* Local-access oracle for the G_Delta sparsifier and its random-greedy
   maximal matching, after Nguyen-Onak style local simulation.

   The whole construction rests on one discipline: the batch builder's
   per-vertex coin flips are a pure function of [(seed, v)]
   ([Rng.derive], shared through [Mark_kernel]), so any single
   vertex's marks can be replayed on demand against probe-metered
   adjacency access ([Adj]) without touching the rest of the graph.  A
   cold [out_marks] costs at most [keep <= 2*delta] probes (low degree:
   copy the neighborhood; high degree: replay the emulated Fisher-Yates
   and read [delta] sampled positions), so a cold [in_gdelta] is
   O(delta) probes — independent of n — plus the O(log max_degree)
   binary search inside [Adj.has_edge].

   The matching side simulates random-greedy maximal matching on
   G_Delta: edges carry deterministic 62-bit ranks (a splitmix-style
   finalizer over [(seed, a, b)], total order by [(rank, a, b)]), and an
   edge is in the matching iff no adjacent G_Delta edge of strictly
   lower rank is.  Ranks cost no probes, so each level ranks its whole
   neighborhood first and then visits the lower-ranked edges in
   ascending order, testing G_Delta membership and recursing lazily and
   stopping at the first matched one (Yoshida-Yamamoto-Ito).  The
   recursion only ever descends to strictly lower ranks, so it
   terminates; memoization ([mm] cache) makes repeated queries cheap,
   and correctness never depends on the memo because LRU eviction only
   forces recomputation.

   Invalidation rule (the serve daemon's read-your-writes contract):
   every memo entry carries the logical clock it was computed at, and
   [Cache.find ~since] drops entries older than the caller's floor.
   Flipping edge (u,v) bumps the clock and stamps u and v as touched.
   Marks of x depend on N(x) only, and [in_gdelta a b] on N(a) and N(b)
   only, so those memos are exact: an entry is stale iff an endpoint was
   touched after it was computed.  Matching membership cascades along
   rank chains arbitrarily far, so the matched-bit memo's floor rises to
   the clock on every update.  Each invalidation is O(1); stale entries
   are dropped when next looked up, or age out through the LRU. *)

type stats = {
  mark_cache : Cache.stats;
  edge_cache : Cache.stats;
  mm_cache : Cache.stats;
  probes : int;
}

type t = {
  adj : Adj.t;
  n : int;
  seed : int;
  delta : int;
  rule : Mark_kernel.rule;
  keep : int; (* Mark_kernel.threshold rule delta *)
  shift : int; (* packing shift for edge-memo codes *)
  sampler : Sampling.t;
  idx : int array; (* delta-sized landing zone for sampled positions *)
  marks : Cache.t; (* v -> slot of its sorted out-marks in [mark_sets] *)
  mark_sets : int array array; (* [marks] slot -> sorted out-marks *)
  edge : Cache.t; (* packed (a,b), a < b -> edge in G_Delta *)
  mm : Cache.t; (* packed (a,b), a < b -> edge in greedy MM *)
  mutable clock : int; (* bumped by every invalidation; stamps entries *)
  mutable touched : int array;
      (* v -> clock of the last update at v; [||] until the first one, so
         a static-graph oracle never allocates it *)
  mutable floor : int; (* [invalidate_all]: older entries are stale *)
  mutable mm_floor : int; (* matched bits older than this are stale *)
}

let default_mark_capacity = 4096
let default_edge_capacity = 65536
let default_mm_capacity = 65536

let create ?(rule = Mark_kernel.Mark_all_at_most_two_delta)
    ?(mark_capacity = default_mark_capacity)
    ?(edge_capacity = default_edge_capacity)
    ?(mm_capacity = default_mm_capacity) adj ~seed ~delta =
  if delta < 1 then invalid_arg "Oracle.create: delta must be >= 1";
  let n = Adj.n adj in
  let shift = Graph.pack_shift ~n:(Int.max 1 n) in
  let marks = Cache.create ~capacity:mark_capacity in
  {
    adj;
    n;
    seed;
    delta;
    rule;
    keep = Mark_kernel.threshold rule delta;
    shift;
    sampler = Sampling.create ~capacity:(Int.max 1 (Adj.max_sample_degree adj));
    idx = Array.make delta 0;
    marks;
    mark_sets = Array.make mark_capacity [||];
    edge = Cache.create ~capacity:edge_capacity;
    mm = Cache.create ~capacity:mm_capacity;
    clock = 0;
    touched = [||];
    floor = 0;
    mm_floor = 0;
  }

let delta t = t.delta
let seed t = t.seed
let rule t = t.rule

(* Out-of-range ids must not reach the memos: they would alias another
   pair's packed key, so a memo hit would answer for the wrong pair
   before any adjacency read could reject the id. *)
let out_of_range fn t v =
  invalid_arg (Printf.sprintf "Oracle.%s: vertex %d outside [0, %d)" fn v t.n)

let check_vertex fn t v = if v < 0 || v >= t.n then out_of_range fn t v

(* The oldest stamp an entry depending on N(v) may carry and be fresh. *)
let fresh_since t v =
  if Array.length t.touched = 0 then t.floor
  else Int.max t.floor (Array.unsafe_get t.touched v)

(* Membership in a sorted int array; branchless-ish lower-bound binary
   search, O(log len) and allocation-free. *)
let mem_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi > !lo do
    let mid = !lo + ((!hi - !lo) / 2) in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && Array.unsafe_get a !lo = x
[@@hot]

(* The neighbors v marks, replayed from (seed, v) and returned sorted.
   Cold cost: min(degree, keep) <= 2*delta probes (static; a dynamic
   high-degree vertex pays degree to canonicalize order, see Adj). *)
let out_marks t v =
  let s = Cache.find t.marks ~since:(fresh_since t v) v in
  if s >= 0 then Array.unsafe_get t.mark_sets s
  else begin
    let d = Adj.degree t.adj v in
    let a =
      if d <= t.keep then begin
        let out = Array.make (Int.max 1 d) 0 in
        let d' = Adj.neighbors_into t.adj v ~out in
        if d' = 0 then [||] else out
      end
      else begin
        Mark_kernel.sampled_indices_into t.sampler ~seed:t.seed v
          ~delta:t.delta ~degree:d ~out:t.idx;
        let out = Array.make t.delta 0 in
        Adj.read_positions t.adj v ~idx:t.idx ~k:t.delta ~out;
        Isort.sort out;
        out
      end
    in
    Array.unsafe_set t.mark_sets (Cache.put t.marks ~stamp:t.clock v false) a;
    a
  end

let marked_neighbors t v =
  check_vertex "marked_neighbors" t v;
  Array.copy (out_marks t v)

let marks_edge t x y = mem_sorted (out_marks t x) y [@@hot]

(* Edge-level memo on top of the mark replay: the cold path still pays
   the [has_edge] binary search, which would otherwise floor the probe
   cost of *every* repeated query — with the memo a warm hit costs zero
   probes.  Both positive and negative answers are cached (a Zipfian
   query mix repeats non-edges too).  The answer depends on N(a) and
   N(b) only, so it stays fresh until either endpoint is touched. *)
let gdelta_edge t a b =
  let code = (a lsl t.shift) lor b in
  let since = Int.max (fresh_since t a) (fresh_since t b) in
  let s = Cache.find t.edge ~since code in
  if s >= 0 then Cache.bit t.edge s
  else begin
    let r = Adj.has_edge t.adj a b && (marks_edge t a b || marks_edge t b a) in
    ignore (Cache.put t.edge ~stamp:t.clock code r);
    r
  end
[@@hot]

let in_gdelta t ~u ~v =
  check_vertex "in_gdelta" t u;
  check_vertex "in_gdelta" t v;
  u <> v && gdelta_edge t (Int.min u v) (Int.max u v)

(* Deterministic 62-bit edge rank: splitmix-style finalizer over
   (seed, a, b) with a < b.  Ties (astronomically unlikely) break by
   (a, b), giving a total order on edges.  [mix64] is inlined so its
   Int64 intermediates stay unboxed: the matching simulation ranks
   every incident edge it reads. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)
[@@inline]

let edge_rank ~seed u v =
  let a = Int.min u v and b = Int.max u v in
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int (a + 1)) 0xBF58476D1CE4E5B9L)
         (Int64.mul (Int64.of_int (b + 1)) 0x94D049BB133111EBL))
  in
  Int64.to_int (Int64.shift_right_logical (mix64 z) 2)

let rank_before r1 a1 b1 r2 a2 b2 =
  r1 < r2 || (r1 = r2 && (a1 < a2 || (a1 = a2 && b1 < b2)))

(* Rank order over the edges (x, ys.(i)) with ranks rs.(i), i < k: a
   binary min-heap kept in place in the two arrays, so the simulation
   takes edges in ascending order one at a time and stops early without
   sorting the rest.  For edges sharing endpoint x, (min, max) order is
   the order of the other endpoint, so ties compare [ys] directly. *)
let heap_before rs ys i j =
  let ri = Array.unsafe_get rs i and rj = Array.unsafe_get rs j in
  ri < rj || (ri = rj && Array.unsafe_get ys i < Array.unsafe_get ys j)

let heap_swap rs ys i j =
  let r = Array.unsafe_get rs i and y = Array.unsafe_get ys i in
  Array.unsafe_set rs i (Array.unsafe_get rs j);
  Array.unsafe_set ys i (Array.unsafe_get ys j);
  Array.unsafe_set rs j r;
  Array.unsafe_set ys j y

(* Restore the heap below position [i] of [0, k). *)
let rec sift_down rs ys k i =
  let l = (2 * i) + 1 in
  if l < k then begin
    let c = if l + 1 < k && heap_before rs ys (l + 1) l then l + 1 else l in
    if heap_before rs ys c i then begin
      heap_swap rs ys i c;
      sift_down rs ys k c
    end
  end
[@@hot]

(* Random-greedy MM membership for G_Delta edge (a,b), a < b: in the
   matching iff no adjacent G_Delta edge of strictly lower (rank,a,b)
   is.  Recursion descends only to strictly lower ranks, so it
   terminates regardless of memo state.  Worst-case probe cost is
   polynomial in the degrees along the rank chain (each level scans one
   neighborhood and replays its marks) — the classical local-simulation
   price; exploring in rank order and stopping at the first matched
   edge keeps the expected chain short, and the [mm] memo makes the
   serve daemon's repeated queries cheap. *)
let rec edge_in_mm t a b =
  let code = (a lsl t.shift) lor b in
  let s = Cache.find t.mm ~since:t.mm_floor code in
  if s >= 0 then Cache.bit t.mm s
  else begin
    let ra = edge_rank ~seed:t.seed a b in
    let r = (not (blocked_via t a b ra a)) && not (blocked_via t a b ra b) in
    ignore (Cache.put t.mm ~stamp:t.clock code r);
    r
  end

(* Does some G_Delta edge at endpoint [x], other than (a,b) itself, with
   strictly lower rank sit in the matching?  Fresh neighbor and rank
   buffers per level: the recursion below would clobber shared
   scratch. *)
and blocked_via t a b ra x =
  let ys = Array.make (Adj.degree t.adj x) 0 in
  let d = Adj.neighbors_into t.adj x ~out:ys in
  let rs = Array.make d 0 in
  let k = ref 0 in
  for i = 0 to d - 1 do
    let y = Array.unsafe_get ys i in
    let ea = Int.min x y and eb = Int.max x y in
    let r = edge_rank ~seed:t.seed ea eb in
    if rank_before r ea eb ra a b then begin
      Array.unsafe_set ys !k y;
      Array.unsafe_set rs !k r;
      incr k
    end
  done;
  first_matched t x ys rs !k

(* Is one of the edges (x, ys.(i)), i < k, in G_Delta and matched?
   Visits them in ascending (rank, a, b) order and stops at the first
   matched one; x's marks are replayed only if some edge is visited. *)
and first_matched t x ys rs k =
  k > 0
  && begin
       for i = (k / 2) - 1 downto 0 do
         sift_down rs ys k i
       done;
       visit t x (out_marks t x) ys rs k
     end

and visit t x om ys rs k =
  k > 0
  && begin
       (* move the lowest remaining edge to position k-1 *)
       let k = k - 1 in
       heap_swap rs ys 0 k;
       sift_down rs ys k 0;
       let y = Array.unsafe_get ys k in
       ((mem_sorted om y || marks_edge t y x)
       && edge_in_mm t (Int.min x y) (Int.max x y))
       || visit t x om ys rs k
     end

let in_matching t ~u ~v =
  check_vertex "in_matching" t u;
  check_vertex "in_matching" t v;
  u <> v
  && gdelta_edge t (Int.min u v) (Int.max u v)
  && edge_in_mm t (Int.min u v) (Int.max u v)

let is_matched t v =
  check_vertex "is_matched" t v;
  let ys = Array.make (Adj.degree t.adj v) 0 in
  let d = Adj.neighbors_into t.adj v ~out:ys in
  let rs = Array.make d 0 in
  for i = 0 to d - 1 do
    let y = Array.unsafe_get ys i in
    Array.unsafe_set rs i (edge_rank ~seed:t.seed (Int.min v y) (Int.max v y))
  done;
  first_matched t v ys rs d

(* O(1): stamp the endpoints and raise the matched-bit floor; stale
   entries are dropped when next looked up. *)
let invalidate_edge t u v =
  check_vertex "invalidate_edge" t u;
  check_vertex "invalidate_edge" t v;
  if Array.length t.touched = 0 then t.touched <- Array.make t.n 0;
  t.clock <- t.clock + 1;
  t.touched.(u) <- t.clock;
  t.touched.(v) <- t.clock;
  t.mm_floor <- t.clock

let invalidate_all t =
  t.clock <- t.clock + 1;
  t.floor <- t.clock;
  t.mm_floor <- t.clock

let probes t = Adj.probes t.adj
let reset_probes t = Adj.reset_probes t.adj

let stats t =
  {
    mark_cache = Cache.stats t.marks;
    edge_cache = Cache.stats t.edge;
    mm_cache = Cache.stats t.mm;
    probes = Adj.probes t.adj;
  }
