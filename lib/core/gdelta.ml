open Mspar_prelude
open Mspar_graph

type stats = {
  delta : int;
  marks : int;
  edges : int;
  probes : int;
  build_ns : int64;
}

type mark_rule = Mark_kernel.rule =
  | Mark_all_at_most_delta
  | Mark_all_at_most_two_delta

(* Upper bound on the marks a range of vertices will emit — lets the packed
   collector allocate its buffer once instead of growing by doubling. *)
let marks_bound rule g ~delta lo hi =
  let keep = Mark_kernel.threshold rule delta in
  let total = ref 0 in
  for v = lo to hi - 1 do
    let d = Graph.degree g v in
    total := !total + (if d <= keep then d else delta)
  done;
  !total
[@@hot]

(* The adjacency span (in CSR words) a marking block may touch before the
   loop moves on: ~256 KiB of 8-byte entries, an L2-sized working set, so
   the sampled reads of a block hit lines the low-degree copies of the
   same block already pulled in. *)
let l2_block_words = 32768

(* The marking loop of G_Δ behind every builder here: marks go straight
   into a flat int buffer as [v lsl shift lor u] codes.  The vertices are
   visited in CSR-contiguous cache-sized blocks
   ([Graph.iter_vertex_blocks]); per block, the buffer is grown once
   ([ensure_capacity] + [push_unchecked], no growth branch per mark) and
   the probe counter is charged once.  The per-vertex decision is
   [Mark_kernel]'s: a sampled vertex draws from its own stream derived
   from [(seed, v)], the form the LCA oracle replays. *)
let collect ~rule ~seed g ~delta =
  if delta < 1 then invalid_arg "Gdelta: delta must be >= 1";
  let nv = Graph.n g in
  let shift = Graph.pack_shift ~n:nv in
  let sampler = Sampling.create ~capacity:(Graph.max_degree g) in
  let buf =
    Edgebuf.create
      ~initial_capacity:(Int.max 16 (marks_bound rule g ~delta 0 nv))
      ()
  in
  let keep = Mark_kernel.threshold rule delta in
  (* per-vertex sample landing zone: [sampled_indices_into] avoids a
     closure call per draw, the dominant per-mark overhead at high degree *)
  let idx = Array.make (Int.max 1 delta) 0 in
  (* hoisted out of the block closure so no ref cell is allocated per
     block — reset at block entry, charged at block exit *)
  let probes = ref 0 in
  Graph.iter_vertex_blocks g ~extent:l2_block_words (fun blo bhi ->
      Edgebuf.ensure_capacity buf
        (Edgebuf.length buf + marks_bound rule g ~delta blo bhi);
      probes := 0;
      for v = blo to bhi - 1 do
        let d = Graph.degree g v in
        let base = v lsl shift in
        if d <= keep then begin
          (* low degree: the whole neighborhood enters the sparsifier;
             the copy loop lives in Graph so no closure is allocated (or
             called) per vertex *)
          probes := !probes + d;
          Graph.append_neighbors_uncounted g v ~base buf
        end
        else begin
          (* d > keep >= delta, so exactly delta reads happen below *)
          probes := !probes + delta;
          Mark_kernel.sampled_indices_into sampler ~seed v ~delta ~degree:d
            ~out:idx;
          for s = 0 to delta - 1 do
            Edgebuf.push_unchecked buf
              (base lor Graph.neighbor_uncounted g v (Array.unsafe_get idx s))
          done
        end
      done;
      Graph.add_probes g !probes);
  buf
[@@hot]

let marked_codes_seeded ?(rule = Mark_all_at_most_two_delta) ~seed g ~delta =
  (collect ~rule ~seed g ~delta, Graph.pack_shift ~n:(Graph.n g))

let marked_codes ?rule rng g ~delta =
  marked_codes_seeded ?rule ~seed:(Mark_kernel.seed_of rng) g ~delta

let marked_pairs ?rule rng g ~delta =
  let buf, shift = marked_codes ?rule rng g ~delta in
  List.rev
    (Edgebuf.fold_left
       (fun acc c -> (Graph.unpack_u ~shift c, Graph.unpack_v ~shift c) :: acc)
       [] buf)

let sparsify_seeded ?(rule = Mark_all_at_most_two_delta) ~seed g ~delta =
  Graph.reset_probes g;
  let t0 = Clock.now_ns () in
  let buf = collect ~rule ~seed g ~delta in
  let marks = Edgebuf.length buf in
  let sparsifier = Graph.of_edgebuf ~n:(Graph.n g) buf in
  let probes = Graph.probes g in
  let t1 = Clock.now_ns () in
  ( sparsifier,
    {
      delta;
      marks;
      edges = Graph.m sparsifier;
      probes;
      build_ns = Int64.sub t1 t0;
    } )

let sparsify ?rule rng g ~delta =
  sparsify_seeded ?rule ~seed:(Mark_kernel.seed_of rng) g ~delta

let deterministic_first_k g ~delta =
  if delta < 1 then invalid_arg "Gdelta.deterministic_first_k: delta >= 1";
  let nv = Graph.n g in
  let shift = Graph.pack_shift ~n:nv in
  let buf = Edgebuf.create () in
  for v = 0 to nv - 1 do
    let d = Int.min delta (Graph.degree g v) in
    let base = v lsl shift in
    Graph.add_probes g d;
    for i = 0 to d - 1 do
      Edgebuf.push buf (base lor Graph.neighbor_uncounted g v i)
    done
  done;
  Graph.of_edgebuf ~n:nv buf
