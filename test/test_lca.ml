(* Tests for mspar_lca: the local-access oracle and its memo layer.

   The load-bearing property is bit-for-bit parity: every oracle answer
   must equal the materialized seeded batch construction on the same
   (seed, graph, delta, rule) — [Gdelta.sparsify_seeded] for sparsifier
   queries, rank-ordered greedy maximal matching on that sparsifier for
   matching queries.  On top of parity, a hard probe gate pins the
   whole point of the oracle: a cold [in_gdelta] costs O(delta) probes
   plus a constant, independent of n. *)

open Mspar_prelude
open Mspar_graph
open Mspar_core
open Mspar_lca

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cache: bounded LRU semantics                                       *)
(* ------------------------------------------------------------------ *)

(* [find] at floor [since] as an option: the bit of a fresh entry *)
let get c ~since k =
  let s = Cache.find c ~since k in
  if s < 0 then None else Some (Cache.bit c s)

let test_cache_basics () =
  let c = Cache.create ~capacity:2 in
  check_bool "miss on empty" true (get c ~since:0 1 = None);
  ignore (Cache.put c ~stamp:0 1 true);
  ignore (Cache.put c ~stamp:0 2 false);
  check_bool "hit 1" true (get c ~since:0 1 = Some true);
  check_bool "hit 2" true (get c ~since:0 2 = Some false);
  check_int "len" 2 (Cache.length c);
  (* 1 was just touched via the hit order above: 2 is now LRU after
     re-touching 1 *)
  ignore (get c ~since:0 1);
  ignore (Cache.put c ~stamp:0 3 true);
  check_bool "2 evicted (LRU)" true (get c ~since:0 2 = None);
  check_bool "1 kept (MRU)" true (get c ~since:0 1 = Some true);
  check_bool "3 present" true (get c ~since:0 3 = Some true);
  let s = Cache.stats c in
  check_int "evictions" 1 s.Cache.evictions;
  check_int "insertions" 3 s.Cache.insertions

let test_cache_stale_stamps () =
  let c = Cache.create ~capacity:4 in
  ignore (Cache.put c ~stamp:1 10 true);
  ignore (Cache.put c ~stamp:3 20 false);
  check_bool "fresh at its own stamp" true (get c ~since:1 10 = Some true);
  check_bool "stale below the floor" true (get c ~since:2 10 = None);
  check_int "stale entry dropped on the spot" 1 (Cache.length c);
  check_bool "gone at any floor" true (get c ~since:0 10 = None);
  check_bool "newer entry survives the floor" true
    (get c ~since:2 20 = Some false);
  let s = Cache.stats c in
  check_int "invalidations" 1 s.Cache.invalidations;
  check_int "misses (the stale find is one)" 2 s.Cache.misses;
  (* the dropped slot recycles cleanly *)
  let slot = Cache.put c ~stamp:4 60 true in
  check_int "usable after drop" slot (Cache.find c ~since:4 60);
  check_bool "stored bit" true (Cache.bit c slot)

let test_cache_overwrite () =
  let c = Cache.create ~capacity:2 in
  let s1 = Cache.put c ~stamp:0 1 true in
  let s2 = Cache.put c ~stamp:0 1 false in
  check_int "overwrite keeps one entry" 1 (Cache.length c);
  check_int "overwrite keeps the slot" s1 s2;
  check_bool "overwritten value" true (get c ~since:0 1 = Some false);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Cache.create: capacity must be >= 1") (fun () ->
      ignore (Cache.create ~capacity:0))

(* Model-based check against a list LRU (most recent first).  Small
   capacities keep the index at 2-16 cells, so probe runs wrap around
   the table end and backward-shift deletion (stale drops, evictions)
   runs across the wrap. *)
type cache_op =
  | Find of int * int (* key, and how far the floor lags the clock *)
  | Put of int * bool
  | Bump (* advance the clock *)

let show_op = function
  | Find (k, lag) -> Printf.sprintf "find %d lag=%d" k lag
  | Put (k, b) -> Printf.sprintf "put %d %b" k b
  | Bump -> "bump"

let cache_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map2 (fun k lag -> Find (k, lag)) (int_bound 23) (int_bound 3));
        (4, map2 (fun k b -> Put (k, b)) (int_bound 23) bool);
        (1, return Bump);
      ]
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map show_op ops)))
    (pair (int_range 1 8) (list_size (int_range 0 300) op))

let qcheck_cache_model =
  QCheck.Test.make ~name:"cache agrees with a list LRU model" ~count:300
    cache_ops
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap in
      (* model: (key, stamp, bit) most recent first, plus counters *)
      let lru = ref [] and clock = ref 0 in
      let hits = ref 0 and misses = ref 0 and ins = ref 0 in
      let evs = ref 0 and invs = ref 0 in
      let front k e = lru := (k, e) :: List.remove_assoc k !lru in
      List.iter
        (fun op ->
          (match op with
          | Find (k, lag) ->
              let since = !clock - lag in
              let want =
                match List.assoc_opt k !lru with
                | None ->
                    incr misses;
                    None
                | Some (stamp, _) when stamp < since ->
                    lru := List.remove_assoc k !lru;
                    incr invs;
                    incr misses;
                    None
                | Some ((_, b) as e) ->
                    incr hits;
                    front k e;
                    Some b
              in
              if get c ~since k <> want then
                QCheck.Test.fail_reportf "%s answered wrong" (show_op op)
          | Put (k, b) ->
              if not (List.mem_assoc k !lru) then begin
                incr ins;
                if List.length !lru = cap then begin
                  incr evs;
                  lru := List.filteri (fun i _ -> i < cap - 1) !lru
                end
              end;
              front k (!clock, b);
              let s = Cache.put c ~stamp:!clock k b in
              if Cache.bit c s <> b then
                QCheck.Test.fail_reportf "%s stored the wrong bit" (show_op op)
          | Bump -> incr clock);
          let s = Cache.stats c in
          if
            s.Cache.hits <> !hits || s.Cache.misses <> !misses
            || s.Cache.insertions <> !ins || s.Cache.evictions <> !evs
            || s.Cache.invalidations <> !invs
            || Cache.length c <> List.length !lru
          then
            QCheck.Test.fail_reportf
              "after %s: hits %d/%d misses %d/%d insertions %d/%d evictions \
               %d/%d invalidations %d/%d length %d/%d (cache/model)"
              (show_op op) s.Cache.hits !hits s.Cache.misses !misses
              s.Cache.insertions !ins s.Cache.evictions !evs
              s.Cache.invalidations !invs (Cache.length c) (List.length !lru))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Parity references                                                  *)
(* ------------------------------------------------------------------ *)

(* Greedy maximal matching on the materialized sparsifier, in the exact
   (rank, a, b) order the oracle simulates locally. *)
let reference_matching ~seed sg =
  let edges = Array.to_list (Graph.edges sg) in
  let ranked =
    List.map (fun (u, v) -> (Oracle.edge_rank ~seed u v, u, v)) edges
  in
  let cmp (r1, a1, b1) (r2, a2, b2) =
    if r1 <> r2 then compare r1 r2
    else if a1 <> a2 then compare a1 a2
    else compare b1 b2
  in
  let ranked = List.sort cmp ranked in
  let matched = Array.make (Graph.n sg) false in
  let in_mm = Hashtbl.create 64 in
  List.iter
    (fun (_, u, v) ->
      if (not matched.(u)) && not matched.(v) then begin
        matched.(u) <- true;
        matched.(v) <- true;
        Hashtbl.replace in_mm (u, v) ()
      end)
    ranked;
  (matched, in_mm)

let oracle_of_static ?rule g ~seed ~delta =
  Oracle.create ?rule (Adj.of_static g) ~seed ~delta

(* Every pairwise sparsifier answer and every per-vertex mark list must
   match the batch build. *)
let assert_sparsifier_parity ?rule g ~seed ~delta =
  let o = oracle_of_static ?rule g ~seed ~delta in
  let sg, _ = Gdelta.sparsify_seeded ?rule ~seed g ~delta in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Oracle.in_gdelta o ~u ~v <> Graph.has_edge sg u v then
        Alcotest.failf "in_gdelta mismatch at (%d,%d) seed=%d delta=%d" u v
          seed delta
    done
  done;
  (* directed mark lists against the raw marked codes *)
  let buf, shift = Gdelta.marked_codes_seeded ?rule ~seed g ~delta in
  let per_vertex = Array.make n [] in
  Edgebuf.fold_left
    (fun () code ->
      let v = code lsr shift and u = code land ((1 lsl shift) - 1) in
      per_vertex.(v) <- u :: per_vertex.(v))
    () buf;
  for v = 0 to n - 1 do
    let want = List.sort_uniq Stdlib.compare per_vertex.(v) in
    let got = Array.to_list (Oracle.marked_neighbors o v) in
    if want <> got then Alcotest.failf "marked_neighbors mismatch at %d" v
  done

let assert_matching_parity ?rule g ~seed ~delta =
  let o = oracle_of_static ?rule g ~seed ~delta in
  let sg, _ = Gdelta.sparsify_seeded ?rule ~seed g ~delta in
  let matched, in_mm = reference_matching ~seed sg in
  for v = 0 to Graph.n g - 1 do
    if Oracle.is_matched o v <> matched.(v) then
      Alcotest.failf "is_matched mismatch at %d seed=%d" v seed
  done;
  Array.iter
    (fun (u, v) ->
      if Oracle.in_matching o ~u ~v <> Hashtbl.mem in_mm (u, v) then
        Alcotest.failf "in_matching mismatch at (%d,%d) seed=%d" u v seed)
    (Graph.edges sg)

let test_sparsifier_parity_families () =
  let rng = Rng.create 3 in
  List.iter
    (fun (g, name) ->
      ignore name;
      List.iter
        (fun seed ->
          assert_sparsifier_parity g ~seed ~delta:2;
          assert_sparsifier_parity g ~seed ~delta:4;
          assert_sparsifier_parity ~rule:Gdelta.Mark_all_at_most_delta g ~seed
            ~delta:3)
        [ 1; 7; 42 ])
    [
      (Gen.gnp rng ~n:35 ~p:0.2, "gnp");
      (Gen.star 30, "star");
      (Gen.complete 18, "complete");
      (Gen.path 25, "path");
      (Gen.disjoint_cliques rng ~n:30 ~k:5, "cliques");
    ]

let test_matching_parity_families () =
  let rng = Rng.create 5 in
  List.iter
    (fun g ->
      List.iter
        (fun seed ->
          assert_matching_parity g ~seed ~delta:3;
          assert_matching_parity ~rule:Gdelta.Mark_all_at_most_delta g ~seed
            ~delta:2)
        [ 2; 13 ])
    [
      Gen.gnp rng ~n:24 ~p:0.25;
      Gen.star 20;
      Gen.complete 12;
      Gen.perfect_matching 10;
    ]

let qcheck_oracle_parity =
  QCheck.Test.make ~name:"oracle parity on random graphs" ~count:40
    QCheck.(triple (int_range 2 30) (int_range 1 5) (int_range 0 10_000))
    (fun (n, delta, seed) ->
      let rng = Rng.create (seed + (31 * n)) in
      let g = Gen.gnp rng ~n ~p:0.3 in
      assert_sparsifier_parity g ~seed ~delta;
      assert_matching_parity g ~seed ~delta;
      true)

(* ------------------------------------------------------------------ *)
(* The probe gate: cold queries are O(delta), independent of n        *)
(* ------------------------------------------------------------------ *)

(* A cold [in_gdelta] replays at most 2*keep <= 4*delta adjacency reads
   for the two endpoint mark lists, plus the binary search inside
   [has_edge] — logarithmic, bounded by one word width.  The bound below
   is absolute: the same constant must hold at every n, or the oracle
   is quietly reading neighborhoods it shouldn't. *)
let probe_budget ~delta = (4 * delta) + 64

let test_cold_probe_budget () =
  let delta = 4 in
  List.iter
    (fun n ->
      let rng = Rng.create (n + 1) in
      List.iter
        (fun g ->
          let o = oracle_of_static g ~seed:9 ~delta in
          (* query across an actual edge so both mark replays run *)
          let u, v = (Graph.edges g).(0) in
          Oracle.reset_probes o;
          ignore (Oracle.in_gdelta o ~u ~v);
          let cold = Oracle.probes o in
          if cold > probe_budget ~delta then
            Alcotest.failf "cold in_gdelta used %d probes (budget %d) at n=%d"
              cold (probe_budget ~delta) n;
          (* warm repeat: the edge-level memo answers at zero probes *)
          Oracle.reset_probes o;
          ignore (Oracle.in_gdelta o ~u ~v);
          let warm = Oracle.probes o in
          if warm <> 0 then
            Alcotest.failf "warm in_gdelta used %d probes at n=%d" warm n;
          let s = Oracle.stats o in
          check_bool "warm repeat hit the memo" true
            (s.Oracle.edge_cache.Cache.hits > 0))
        [
          Gen.gnp rng ~n ~p:(8.0 /. float_of_int n);
          Gen.star n;
          Gen.complete (Int.min n 64);
        ])
    [ 1_000; 4_000; 16_000 ]

(* ------------------------------------------------------------------ *)
(* Dynamic adjacency: parity under interleaved updates + invalidation *)
(* ------------------------------------------------------------------ *)

let test_dyn_parity_under_updates () =
  let n = 28 and delta = 3 and seed = 17 in
  let dg = Mspar_dynamic.Dyn_graph.create n in
  let o = Oracle.create (Adj.of_dyn dg) ~seed ~delta in
  let rng = Rng.create 23 in
  let check_against_snapshot () =
    let g = Mspar_dynamic.Dyn_graph.snapshot dg in
    let sg, _ = Gdelta.sparsify_seeded ~seed g ~delta in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Oracle.in_gdelta o ~u ~v <> Graph.has_edge sg u v then
          Alcotest.failf "dyn in_gdelta mismatch at (%d,%d)" u v
      done
    done;
    let matched, _ = reference_matching ~seed sg in
    for v = 0 to n - 1 do
      if Oracle.is_matched o v <> matched.(v) then
        Alcotest.failf "dyn is_matched mismatch at %d" v
    done
  in
  for step = 1 to 400 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let changed =
        if Rng.bool rng then Mspar_dynamic.Dyn_graph.insert dg u v
        else Mspar_dynamic.Dyn_graph.delete dg u v
      in
      (* the serve daemon's rule: invalidate on every applied change *)
      if changed then Oracle.invalidate_edge o u v
    end;
    if step mod 80 = 0 then check_against_snapshot ()
  done;
  Oracle.invalidate_all o;
  check_against_snapshot ()

(* Skipping invalidation must be observable: this is exactly the stale
   read the dispatcher's read-your-writes contract rules out. *)
let test_stale_without_invalidation () =
  let n = 8 and delta = 1 and seed = 2 in
  let dg = Mspar_dynamic.Dyn_graph.create n in
  ignore (Mspar_dynamic.Dyn_graph.insert dg 0 1);
  let o = Oracle.create (Adj.of_dyn dg) ~seed ~delta in
  check_bool "edge present before delete" true (Oracle.in_gdelta o ~u:0 ~v:1);
  ignore (Mspar_dynamic.Dyn_graph.delete dg 0 1);
  (* without invalidation the mark memo is stale but has_edge already
     answers false — the memo only poisons derived state; flip it back
     on and the stale mark array must be refreshed by invalidation *)
  ignore (Mspar_dynamic.Dyn_graph.insert dg 0 2);
  let stale = Oracle.marked_neighbors o 0 in
  Oracle.invalidate_edge o 0 2;
  let fresh = Oracle.marked_neighbors o 0 in
  check_bool "stale memo differs from refreshed replay" true (stale <> fresh);
  check_bool "refreshed marks see the new edge" true
    (Array.exists (fun y -> y = 2) fresh)

(* After every update — applied or not — the oracle must answer as a
   cold build of the current graph would.  Memos of 2-4 entries make
   LRU evictions and stale stamps interleave, so a wrong staleness rule
   or a slot reused under a live reference shows within a few steps. *)
let qcheck_dyn_parity_every_update =
  QCheck.Test.make ~name:"dynamic oracle parity after every update" ~count:25
    QCheck.(
      quad (int_range 2 24) (int_range 1 4) (int_range 2 4)
        (int_range 0 10_000))
    (fun (n, delta, cap, seed) ->
      let dg = Mspar_dynamic.Dyn_graph.create n in
      let o =
        Oracle.create (Adj.of_dyn dg) ~seed ~delta ~mark_capacity:cap
          ~edge_capacity:cap ~mm_capacity:cap
      in
      let rng = Rng.create (seed + (97 * n)) in
      for step = 1 to 50 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          let changed =
            if Rng.int rng 3 > 0 then Mspar_dynamic.Dyn_graph.insert dg u v
            else Mspar_dynamic.Dyn_graph.delete dg u v
          in
          if changed then Oracle.invalidate_edge o u v
        end;
        let sg, _ =
          Gdelta.sparsify_seeded ~seed
            (Mspar_dynamic.Dyn_graph.snapshot dg)
            ~delta
        in
        let matched, in_mm = reference_matching ~seed sg in
        for a = 0 to n - 1 do
          if Oracle.is_matched o a <> matched.(a) then
            QCheck.Test.fail_reportf "step %d: is_matched %d" step a;
          for b = a + 1 to n - 1 do
            if Oracle.in_gdelta o ~u:a ~v:b <> Graph.has_edge sg a b then
              QCheck.Test.fail_reportf "step %d: in_gdelta (%d,%d)" step a b;
            if Oracle.in_matching o ~u:a ~v:b <> Hashtbl.mem in_mm (a, b) then
              QCheck.Test.fail_reportf "step %d: in_matching (%d,%d)" step a b
          done
        done
      done;
      true)

(* The edge memo is exact: an update elsewhere leaves an entry fresh, so
   the repeat is a zero-probe hit, while an entry at a touched endpoint
   is recomputed. *)
let test_edge_memo_survives_unrelated_update () =
  let dg = Mspar_dynamic.Dyn_graph.create 8 in
  List.iter
    (fun (u, v) -> ignore (Mspar_dynamic.Dyn_graph.insert dg u v))
    [ (0, 1); (1, 2); (4, 5) ];
  let o = Oracle.create (Adj.of_dyn dg) ~seed:5 ~delta:1 in
  let edge_stats () = (Oracle.stats o).Oracle.edge_cache in
  check_bool "(0,1) in G_delta" true (Oracle.in_gdelta o ~u:0 ~v:1);
  check_bool "(4,5) in G_delta" true (Oracle.in_gdelta o ~u:4 ~v:5);
  ignore (Mspar_dynamic.Dyn_graph.insert dg 5 6);
  Oracle.invalidate_edge o 5 6;
  let before = edge_stats () in
  Oracle.reset_probes o;
  check_bool "(0,1) still answered" true (Oracle.in_gdelta o ~u:0 ~v:1);
  check_int "zero probes" 0 (Oracle.probes o);
  check_int "counted as a hit" (before.Cache.hits + 1)
    (edge_stats ()).Cache.hits;
  ignore (Oracle.in_gdelta o ~u:4 ~v:5);
  let after = edge_stats () in
  check_int "touched endpoint: stale entry dropped"
    (before.Cache.invalidations + 1)
    after.Cache.invalidations;
  check_int "touched endpoint: counted as a miss" (before.Cache.misses + 1)
    after.Cache.misses

(* At n = 2048 the edge-memo key of (0, 2053) is that of (1, 5): an
   unchecked out-of-range query would poison the valid pair's entry. *)
let test_out_of_range_rejected () =
  let n = 2048 in
  let dg = Mspar_dynamic.Dyn_graph.create n in
  ignore (Mspar_dynamic.Dyn_graph.insert dg 1 5);
  let o = Oracle.create (Adj.of_dyn dg) ~seed:3 ~delta:2 in
  let bad name v f =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Oracle.%s: vertex %d outside [0, %d)" name v n))
      (fun () -> ignore (f ()))
  in
  bad "in_gdelta" 2053 (fun () -> Oracle.in_gdelta o ~u:0 ~v:2053);
  check_bool "(1,5) unpoisoned" true (Oracle.in_gdelta o ~u:1 ~v:5);
  bad "in_gdelta" 2053 (fun () -> Oracle.in_gdelta o ~u:0 ~v:2053);
  check_bool "(1,5) still in G_delta" true (Oracle.in_gdelta o ~u:1 ~v:5);
  bad "is_matched" 2053 (fun () -> Oracle.is_matched o 2053);
  bad "in_matching" (-1) (fun () -> Oracle.in_matching o ~u:(-1) ~v:5);
  bad "marked_neighbors" n (fun () -> Oracle.marked_neighbors o n);
  bad "invalidate_edge" 4096 (fun () -> Oracle.invalidate_edge o 1 4096);
  check_bool "(1,5) matched" true (Oracle.in_matching o ~u:1 ~v:5)

let () =
  Alcotest.run "mspar_lca"
    [
      ( "cache",
        [
          Alcotest.test_case "lru basics" `Quick test_cache_basics;
          Alcotest.test_case "stale stamps" `Quick test_cache_stale_stamps;
          Alcotest.test_case "overwrite + bad capacity" `Quick
            test_cache_overwrite;
        ] );
      ( "parity",
        [
          Alcotest.test_case "sparsifier parity across families" `Quick
            test_sparsifier_parity_families;
          Alcotest.test_case "matching parity across families" `Quick
            test_matching_parity_families;
        ] );
      ( "probes",
        [ Alcotest.test_case "cold O(delta) gate" `Quick test_cold_probe_budget ] );
      ( "dynamic",
        [
          Alcotest.test_case "parity under interleaved updates" `Quick
            test_dyn_parity_under_updates;
          Alcotest.test_case "stale without invalidation" `Quick
            test_stale_without_invalidation;
          Alcotest.test_case "edge memo survives an unrelated update" `Quick
            test_edge_memo_survives_unrelated_update;
          Alcotest.test_case "out-of-range ids rejected" `Quick
            test_out_of_range_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_oracle_parity;
            qcheck_cache_model;
            qcheck_dyn_parity_every_update;
          ]
      );
    ]
