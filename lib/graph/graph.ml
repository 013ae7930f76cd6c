module Edgebuf = Mspar_prelude.Edgebuf
module Isort = Mspar_prelude.Isort
module Bigvec = Mspar_prelude.Bigvec

type edge = int * int

(* The CSR lanes live off the OCaml heap: [Bigvec.t] is malloc'd (or, for
   graphs opened from an [.msgr] file, mmap'd) storage the GC never scans.
   Adjacency for a 100M-edge graph is ~1.6 GB that would otherwise be
   re-marked on every major collection; off-heap it costs the collector
   nothing and can be shared across domains with no write barriers.
   Within this module the lanes are accessed through the [Bigarray.Array1]
   primitives directly (bounds discipline is concentrated here and in
   [Mspar_prelude.Bigvec] — lint rule MSP010); every unsafe index below is
   derived from a validated offsets lane. *)
type t = {
  n : int;
  offsets : Bigvec.t; (* length n+1 *)
  adj : Bigvec.t; (* length 2m, sorted within each vertex block *)
  maxdeg : int; (* cached at build time; max_degree is O(1) *)
  probe_count : int Atomic.t; (* atomic so parallel probe totals are exact *)
}

(* Checked reads: [Array1.get] is a compiler primitive (one bounds test and
   an unboxed load once the kind/layout are statically known), so the safe
   accessors cost what a heap [Array.get] used to. *)
let og (o : Bigvec.t) i : int = Bigarray.Array1.get o i
let au (a : Bigvec.t) i : int = Bigarray.Array1.unsafe_get a i

let n t = t.n
let m t = Bigvec.length t.adj / 2
let degree t v = og t.offsets (v + 1) - og t.offsets v
let max_degree t = t.maxdeg

(* ------------------------------------------------------------------ *)
(* Packed-edge pipeline                                               *)
(* ------------------------------------------------------------------ *)

(* An edge is carried as a single int [u lsl shift lor v] with
   [shift = max 1 (bits of (n-1))].  Two endpoints must fit the 62
   non-negative bits of a native int, so n is capped at 2^30: that range
   is a precondition of [t], and every builder checks it here before it
   allocates anything. *)
let max_shift = (Sys.int_size - 2) / 2

let pack_shift ~n =
  if n < 0 || n > 1 lsl max_shift then
    invalid_arg
      (Printf.sprintf
         "Graph.pack_shift: vertex count %d outside the packable range [0, 2^%d]"
         n max_shift);
  let s = ref 1 in
  while 1 lsl !s < n do
    incr s
  done;
  !s

let pack ~shift u v = (u lsl shift) lor v
let unpack_u ~shift c = c lsr shift
let unpack_v ~shift c = c land ((1 lsl shift) - 1)

(* The CSR builder over a packed prefix [codes.(0 .. len-1)]: marks may
   contain self-loops, duplicates and reversed duplicates.  Everything is
   flat int arrays — no tuples, no polymorphic compare, no per-block sort.
   The prefix of [codes] is mutated (normalised, sorted, deduplicated).
   Scratch stays on the heap (it is short-lived); only the final CSR lanes
   go off-heap, written in place with no post-build copy. *)
let build_packed ~n ~shift codes len =
  let mask = (1 lsl shift) - 1 in
  (* 1. drop self-loops, orient u < v, compact in place *)
  let w = ref 0 in
  for i = 0 to len - 1 do
    let c = Array.unsafe_get codes i in
    let u = c lsr shift and v = c land mask in
    if u <> v then begin
      Array.unsafe_set codes !w (if u < v then c else (v lsl shift) lor u);
      incr w
    end
  done;
  let len = !w in
  (* 2. sort the codes ascending — lexicographic on (u, v).  When the mark
     count is at least ~n/4 a two-pass stable counting sort (minor key v,
     then major key u) is O(len + n); for very sparse inputs the O(n)
     counting passes would dominate, so fall back to comparison sort. *)
  let counts = Array.make (n + 1) 0 in
  if len >= n / 4 then begin
    let aux = Array.make (Int.max len 1) 0 in
    let counting_pass ~key src dst =
      Array.fill counts 0 (n + 1) 0;
      for i = 0 to len - 1 do
        let k = key (Array.unsafe_get src i) in
        Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
      done;
      let run = ref 0 in
      for v = 0 to n - 1 do
        let c = Array.unsafe_get counts v in
        Array.unsafe_set counts v !run;
        run := !run + c
      done;
      for i = 0 to len - 1 do
        let c = Array.unsafe_get src i in
        let k = key c in
        Array.unsafe_set dst (Array.unsafe_get counts k) c;
        Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
      done
    in
    counting_pass ~key:(fun c -> c land mask) codes aux;
    counting_pass ~key:(fun c -> c lsr shift) aux codes
  end
  else Isort.sort_range codes ~pos:0 ~len;
  (* 3. dedup the sorted prefix in place *)
  let uniq = ref 0 in
  if len > 0 then begin
    uniq := 1;
    for i = 1 to len - 1 do
      let c = Array.unsafe_get codes i in
      if c <> Array.unsafe_get codes (!uniq - 1) then begin
        Array.unsafe_set codes !uniq c;
        incr uniq
      end
    done
  end;
  let medges = !uniq in
  (* 4. degrees, offsets, cached max degree *)
  Array.fill counts 0 (n + 1) 0;
  for i = 0 to medges - 1 do
    let c = Array.unsafe_get codes i in
    let u = c lsr shift and v = c land mask in
    Array.unsafe_set counts u (Array.unsafe_get counts u + 1);
    Array.unsafe_set counts v (Array.unsafe_get counts v + 1)
  done;
  let offsets : Bigvec.t = Bigvec.create_uninit (n + 1) in
  Bigarray.Array1.unsafe_set offsets 0 0;
  let maxdeg = ref 0 in
  let run = ref 0 in
  for v = 0 to n - 1 do
    let d = Array.unsafe_get counts v in
    if d > !maxdeg then maxdeg := d;
    run := !run + d;
    Bigarray.Array1.unsafe_set offsets (v + 1) !run
  done;
  (* 5. fill adjacency in two passes over the sorted codes.  Pass one
     writes the smaller endpoint into the larger endpoint's block: for a
     fixed block x these arrive ordered by the major sort key, so x's
     neighbors below x land in increasing order.  Pass two writes the
     larger endpoint into the smaller endpoint's block, appending x's
     neighbors above x in increasing order.  Every block is born sorted —
     no Array.sub / Array.sort compare.  The writes land directly in the
     off-heap lane. *)
  let adj : Bigvec.t = Bigvec.create_uninit !run in
  let cursor = counts in
  for v = 0 to n - 1 do
    Array.unsafe_set cursor v (Bigarray.Array1.unsafe_get offsets v)
  done;
  for i = 0 to medges - 1 do
    let c = Array.unsafe_get codes i in
    let u = c lsr shift and v = c land mask in
    Bigarray.Array1.unsafe_set adj (Array.unsafe_get cursor v) u;
    Array.unsafe_set cursor v (Array.unsafe_get cursor v + 1)
  done;
  for i = 0 to medges - 1 do
    let c = Array.unsafe_get codes i in
    let u = c lsr shift and v = c land mask in
    Bigarray.Array1.unsafe_set adj (Array.unsafe_get cursor u) v;
    Array.unsafe_set cursor u (Array.unsafe_get cursor u + 1)
  done;
  { n; offsets; adj; maxdeg = !maxdeg; probe_count = Atomic.make 0 }

let check_endpoints ~n (u, v) =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Graph.of_edges: endpoint out of range"

(* ------------------------------------------------------------------ *)
(* Constructors                                                       *)
(* ------------------------------------------------------------------ *)

let of_edges_iter ~n iter =
  let shift = pack_shift ~n in
  let buf = Edgebuf.create () in
  iter (fun u v ->
      check_endpoints ~n (u, v);
      Edgebuf.push buf ((u lsl shift) lor v));
  build_packed ~n ~shift (Edgebuf.data buf) (Edgebuf.length buf)

let of_edges ~n edges =
  of_edges_iter ~n (fun push -> List.iter (fun (u, v) -> push u v) edges)

let of_edge_array ~n edges =
  of_edges_iter ~n (fun push -> Array.iter (fun (u, v) -> push u v) edges)

let of_packed ~n ?len codes =
  let shift = pack_shift ~n in
  let len = match len with Some l -> l | None -> Array.length codes in
  if len < 0 || len > Array.length codes then
    invalid_arg "Graph.of_packed: bad length";
  let mask = (1 lsl shift) - 1 in
  for i = 0 to len - 1 do
    let c = codes.(i) in
    if c < 0 || c lsr shift >= n || c land mask >= n then
      invalid_arg "Graph.of_packed: code out of range"
  done;
  build_packed ~n ~shift codes len

let of_edgebuf ~n buf = of_packed ~n ~len:(Edgebuf.length buf) (Edgebuf.data buf)

(* ------------------------------------------------------------------ *)
(* Raw CSR lanes (the .msgr mmap path)                                *)
(* ------------------------------------------------------------------ *)

(* Validates everything that keeps later unsafe adjacency indexing inside
   the lane extents, in O(n), WITHOUT reading the adjacency lane: offset
   monotonicity pins every block to [0, |adj|), so a graph whose lanes
   come from an untrusted (possibly truncated or bit-flipped) mapping can
   never index past the mapped region.  Damaged adjacency *values* are
   still possible — they surface as wrong neighbors / failed [audit], not
   as wild reads, and [Graph_io.load_mmap ~verify:true] pins them down
   with the content checksum. *)
let of_csr ~n ~offsets ~adj ~maxdeg =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match pack_shift ~n with
  | exception Invalid_argument reason -> Error reason
  | _ when Bigvec.length offsets <> n + 1 ->
      err "offsets lane has %d entries, expected n+1 = %d"
        (Bigvec.length offsets) (n + 1)
  | _ when og offsets 0 <> 0 -> err "offsets.(0) = %d, expected 0" (og offsets 0)
  | _ ->
      let bad = ref (-1) in
      let md = ref 0 in
      (let v = ref 0 in
       while !bad < 0 && !v < n do
         let d = og offsets (!v + 1) - og offsets !v in
         if d < 0 then bad := !v else if d > !md then md := d;
         incr v
       done);
      if !bad >= 0 then err "offsets not monotone at vertex %d" !bad
      else if og offsets n <> Bigvec.length adj then
        err "offsets.(n) = %d, expected |adj| = %d" (og offsets n)
          (Bigvec.length adj)
      else if !md <> maxdeg then
        err "declared max degree %d, offsets imply %d" maxdeg !md
      else Ok { n; offsets; adj; maxdeg; probe_count = Atomic.make 0 }

let csr_lanes t = (t.offsets, t.adj)

let materialize t =
  {
    n = t.n;
    offsets = Bigvec.copy t.offsets;
    adj = Bigvec.copy t.adj;
    maxdeg = t.maxdeg;
    probe_count = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Probe-counted access                                               *)
(* ------------------------------------------------------------------ *)

let add_probes t k = ignore (Atomic.fetch_and_add t.probe_count k)

let neighbor t v i =
  if i < 0 || i >= degree t v then invalid_arg "Graph.neighbor: index out of range";
  add_probes t 1;
  au t.adj (og t.offsets v + i)

let neighbor_uncounted t v i =
  if i < 0 || i >= degree t v then invalid_arg "Graph.neighbor: index out of range";
  au t.adj (og t.offsets v + i)

(* Partition the vertex range into maximal contiguous runs whose
   adjacency occupies at most [extent] CSR words.  Offsets make each
   candidate extent an O(1) subtraction, so the scan is O(blocks + n).
   A vertex whose own list exceeds [extent] forms a singleton block —
   progress is unconditional. *)
let iter_vertex_blocks t ~extent f =
  if extent < 1 then invalid_arg "Graph.iter_vertex_blocks: extent must be >= 1";
  let b = ref 0 in
  while !b < t.n do
    let base = og t.offsets !b in
    let e = ref (!b + 1) in
    while !e < t.n && og t.offsets (!e + 1) - base <= extent do
      incr e
    done;
    f !b !e;
    b := !e
  done

let iter_neighbors_uncounted t v f =
  let lo = og t.offsets v and hi = og t.offsets (v + 1) in
  for i = lo to hi - 1 do
    f (au t.adj i)
  done

let append_neighbors_uncounted t v ~base buf =
  let lo = og t.offsets v and hi = og t.offsets (v + 1) in
  for i = lo to hi - 1 do
    Edgebuf.push_unchecked buf (base lor au t.adj i)
  done
[@@hot]

(* The oracle-surface gather: v's whole (sorted) adjacency block into a
   caller-owned landing array, no closure per neighbor.  Uncounted — the
   LCA read path replays a vertex with one batched [add_probes] charge,
   and msparlint's MSP014 proves every call site is dominated by one. *)
let neighbors_into_uncounted t v ~out =
  let lo = og t.offsets v and hi = og t.offsets (v + 1) in
  let d = hi - lo in
  if Array.length out < d then
    invalid_arg "Graph.neighbors_into_uncounted: out shorter than degree";
  for i = 0 to d - 1 do
    Array.unsafe_set out i (au t.adj (lo + i))
  done;
  d
[@@hot]

let iter_neighbors t v f =
  let lo = og t.offsets v and hi = og t.offsets (v + 1) in
  add_probes t (hi - lo);
  for i = lo to hi - 1 do
    f (au t.adj i)
  done

let fold_neighbors t v ~init ~f =
  let acc = ref init in
  iter_neighbors t v (fun u -> acc := f !acc u);
  !acc

let has_edge t u v =
  if u = v then false
  else begin
    (* search for v in the (sorted) smaller adjacency block *)
    let u, v = if degree t u <= degree t v then (u, v) else (v, u) in
    let lo = ref (og t.offsets u) and hi = ref (og t.offsets (u + 1) - 1) in
    let found = ref false in
    let reads = ref 0 in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      incr reads;
      let w = au t.adj mid in
      if w = v then found := true
      else if w < v then lo := mid + 1
      else hi := mid - 1
    done;
    add_probes t !reads;
    !found
  end

let iter_edges t f =
  for v = 0 to t.n - 1 do
    for i = og t.offsets v to og t.offsets (v + 1) - 1 do
      let u = au t.adj i in
      if v < u then f v u
    done
  done

let edges t =
  (* iter_edges emits (v, u) with v < u, v ascending and u ascending within
     each block — already the normalised sorted order, no sort needed *)
  let out = Array.make (m t) (0, 0) in
  let k = ref 0 in
  iter_edges t (fun u v ->
      out.(!k) <- (u, v);
      incr k);
  out

let probes t = Atomic.get t.probe_count
let reset_probes t = Atomic.set t.probe_count 0

let induced t vs =
  let distinct = Array.of_list (List.sort_uniq Int.compare (Array.to_list vs)) in
  let old_to_new = Hashtbl.create (Array.length distinct) in
  Array.iteri (fun i v -> Hashtbl.replace old_to_new v i) distinct;
  let sub =
    of_edges_iter ~n:(Array.length distinct) (fun push ->
        Array.iteri
          (fun i v ->
            for k = og t.offsets v to og t.offsets (v + 1) - 1 do
              let u = au t.adj k in
              match Hashtbl.find_opt old_to_new u with
              | Some j when i < j -> push i j
              | Some _ | None -> ()
            done)
          distinct)
  in
  (sub, distinct)

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: vertex counts differ";
  of_edges_iter ~n:a.n (fun push ->
      iter_edges a push;
      iter_edges b push)

let is_subgraph ~sub ~super =
  sub.n = super.n
  &&
  let ok = ref true in
  iter_edges sub (fun u v -> if not (has_edge super u v) then ok := false);
  !ok

let complement_degree_sum t = Bigvec.length t.adj

(* ------------------------------------------------------------------ *)
(* Integrity audit                                                    *)
(* ------------------------------------------------------------------ *)

(* Uncounted binary search — the audit is metadata verification, not an
   algorithmic probe of the input. *)
let mem_block t v x =
  let lo = ref (og t.offsets v) and hi = ref (og t.offsets (v + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = au t.adj mid in
    if w = x then found := true else if w < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

let audit t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if Bigvec.length t.offsets <> t.n + 1 then
    fail "offsets length %d, expected n+1 = %d" (Bigvec.length t.offsets)
      (t.n + 1)
  else begin
    if og t.offsets 0 <> 0 then fail "offsets.(0) = %d, expected 0" (og t.offsets 0);
    for v = 0 to t.n - 1 do
      if og t.offsets (v + 1) < og t.offsets v then
        fail "offsets not monotone at vertex %d (%d > %d)" v (og t.offsets v)
          (og t.offsets (v + 1))
    done;
    if og t.offsets t.n <> Bigvec.length t.adj then
      fail "offsets.(n) = %d, expected |adj| = %d (degree sum 2m)"
        (og t.offsets t.n) (Bigvec.length t.adj);
    if List.is_empty !failures then begin
      (* blocks: in-range, no self-loops, strictly sorted (no duplicates) *)
      for v = 0 to t.n - 1 do
        for i = og t.offsets v to og t.offsets (v + 1) - 1 do
          let u = au t.adj i in
          if u < 0 || u >= t.n then fail "vertex %d: neighbor %d out of range" v u
          else if u = v then fail "vertex %d: self-loop" v;
          if i > og t.offsets v && au t.adj (i - 1) >= u then
            fail "vertex %d: block not strictly sorted at slot %d" v
              (i - og t.offsets v)
        done
      done;
      (* symmetry: (v, u) present iff (u, v) present *)
      for v = 0 to t.n - 1 do
        for i = og t.offsets v to og t.offsets (v + 1) - 1 do
          let u = au t.adj i in
          if u >= 0 && u < t.n && u <> v && not (mem_block t u v) then
            fail "asymmetric edge: %d in block of %d but not vice versa" u v
        done
      done;
      (* cached max degree *)
      let md = ref 0 in
      for v = 0 to t.n - 1 do
        md := Int.max !md (og t.offsets (v + 1) - og t.offsets v)
      done;
      if !md <> t.maxdeg then
        fail "cached max_degree %d, recomputed %d" t.maxdeg !md
    end
  end;
  List.rev !failures

(* FNV-1a over the structural content (n, offsets, adj).  Probe counters
   are deliberately excluded: two graphs with the same edge set checksum
   identically regardless of read history.  The lane values are the same
   ints the heap representation stored, so checksums are unchanged by the
   off-heap move. *)
let checksum t =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    let x = ref !h in
    let v = ref (Int64.of_int v) in
    for _ = 0 to 7 do
      x := Int64.mul (Int64.logxor !x (Int64.logand !v 0xffL)) 0x100000001b3L;
      v := Int64.shift_right_logical !v 8
    done;
    h := !x
  in
  mix t.n;
  for i = 0 to Bigvec.length t.offsets - 1 do
    mix (au t.offsets i)
  done;
  for i = 0 to Bigvec.length t.adj - 1 do
    mix (au t.adj i)
  done;
  !h

let pp ppf t = Format.fprintf ppf "graph(n=%d, m=%d)" t.n (m t)

let equal a b =
  (* blocks are sorted, so equal edge sets have identical CSR lanes *)
  a.n = b.n && Bigvec.equal a.offsets b.offsets && Bigvec.equal a.adj b.adj
