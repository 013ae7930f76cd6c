(* Tests for mspar_distsim: the synchronous network simulator, the one-round
   distributed sparsifiers, the proposal-based maximal matching, the
   walker-based (1+eps) algorithm, and the message-complexity comparison
   behind Theorem 3.3. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_distsim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Network semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_network_basic () =
  let g = Gen.path 3 in
  let net = Network.create g in
  check "no rounds yet" 0 (Network.rounds net);
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:2 ~dst:1 ();
  check "messages counted at send" 2 (Network.messages net);
  check_bool "inbox empty before deliver" true (Network.inbox net 1 = []);
  Network.deliver net;
  check "one round" 1 (Network.rounds net);
  let senders = List.map fst (Network.inbox net 1) |> List.sort compare in
  check_bool "both messages arrived" true (senders = [ 0; 2 ]);
  Network.deliver net;
  check_bool "inbox cleared next round" true (Network.inbox net 1 = [])

let test_network_rejects_non_neighbor () =
  let g = Gen.path 3 in
  let net = Network.create g in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Network.send: dst is not a neighbor of src") (fun () ->
      Network.send net ~src:0 ~dst:2 ())

let test_network_broadcast_and_bits () =
  let g = Gen.star 5 in
  let net = Network.create ~bit_size:(fun words -> 8 * words) g in
  Network.broadcast net ~src:0 3;
  check "four messages" 4 (Network.messages net);
  check "bits" (4 * 24) (Network.bits net);
  check "max message bits" 24 (Network.max_message_bits net);
  check_bool "congest word positive" true (Network.congest_word net >= 2)

let test_network_skip_rounds () =
  let net = Network.create (Gen.path 2) in
  Network.skip_rounds net 5;
  check "skipped" 5 (Network.rounds net)

(* ------------------------------------------------------------------ *)
(* Distributed sparsifiers                                            *)
(* ------------------------------------------------------------------ *)

let test_dist_gdelta_single_round () =
  let rng = Rng.create 1 in
  let g = Gen.complete 40 in
  let s, st = Sparsify_dist.gdelta rng g ~delta:4 in
  check "one round" 1 st.Sparsify_dist.rounds;
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
  (* message count = marking events <= n * 2delta, sublinear vs 2m *)
  check_bool "messages sublinear" true
    (st.Sparsify_dist.messages <= Graph.n g * 8);
  check_bool "messages below input size" true
    (st.Sparsify_dist.messages < 2 * Graph.m g);
  (* 1-bit messages *)
  check "bits equal messages" st.Sparsify_dist.messages st.Sparsify_dist.bits;
  (* min-degree guarantee as in the sequential construction *)
  for v = 0 to Graph.n g - 1 do
    check_bool "degree floor" true
      (Graph.degree s v >= min (Graph.degree g v) 4)
  done

let test_dist_gdelta_matches_quality () =
  let rng = Rng.create 2 in
  let g = Gen.complete 60 in
  let s, _ = Sparsify_dist.gdelta rng g ~delta:8 in
  let opt = Matching.size (Blossom.solve g) in
  let opt_s = Matching.size (Blossom.solve s) in
  check_bool
    (Printf.sprintf "distributed sparsifier quality %d vs %d" opt_s opt)
    true
    (float_of_int opt <= 1.5 *. float_of_int opt_s)

(* one kernel: processor v marks from (seed_of rng, v), so the one-round
   G_delta and the reliable variant's fault-free target are the
   sequential builder's graph for the same generator state *)
let test_dist_gdelta_equals_sequential () =
  let gen = Rng.create 30 in
  let graphs =
    Gen.complete 40 :: List.init 20 (fun _ -> Gen.gnp gen ~n:60 ~p:0.3)
  in
  List.iteri
    (fun i g ->
      let seq, _ =
        Mspar_core.Gdelta.sparsify (Rng.create (100 + i)) g ~delta:4
      in
      let dist, _ = Sparsify_dist.gdelta (Rng.create (100 + i)) g ~delta:4 in
      let rel, _ =
        Sparsify_dist.gdelta_reliable (Rng.create (100 + i)) g ~delta:4
          ~retries:2
      in
      check_bool (Printf.sprintf "graph %d: gdelta = Gdelta.sparsify" i) true
        (Graph.equal dist seq);
      check_bool
        (Printf.sprintf "graph %d: gdelta_reliable = Gdelta.sparsify" i)
        true (Graph.equal rel seq))
    graphs

let test_dist_solomon () =
  let rng = Rng.create 3 in
  let g = Gen.gnp rng ~n:50 ~p:0.3 in
  let s, st = Sparsify_dist.solomon g ~delta_alpha:5 in
  check "one round" 1 st.Sparsify_dist.rounds;
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
  check_bool "degree bound" true (Graph.max_degree s <= 5);
  (* must agree with the sequential implementation (same arbitrary rule) *)
  let seq = Mspar_core.Solomon.sparsify g ~delta_alpha:5 in
  check_bool "agrees with sequential" true (Graph.equal s seq)

let test_dist_composed () =
  let rng = Rng.create 4 in
  let g = Gen.complete 50 in
  let s, st = Sparsify_dist.composed rng g ~beta:1 ~eps:0.5 ~multiplier:1.0 () in
  check "two rounds" 2 st.Sparsify_dist.rounds;
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g)

(* ------------------------------------------------------------------ *)
(* Distributed maximal matching                                       *)
(* ------------------------------------------------------------------ *)

let test_dist_maximal () =
  let rng = Rng.create 5 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:40 ~p:0.2 in
    let m, st = Matching_dist.maximal rng g in
    check_bool "valid" true (Matching.is_valid g m);
    check_bool "maximal" true (Matching.is_maximal g m);
    check_bool "rounds logarithmic-ish" true (st.Matching_dist.rounds <= 200)
  done

let test_dist_maximal_empty_and_tiny () =
  let rng = Rng.create 6 in
  let m, st = Matching_dist.maximal rng (Gen.empty 5) in
  check "empty graph" 0 (Matching.size m);
  check "no rounds needed" 0 (st.Matching_dist.rounds);
  let m, _ = Matching_dist.maximal rng (Gen.path 2) in
  check "single edge matched" 1 (Matching.size m)

(* ------------------------------------------------------------------ *)
(* Walker-based (1+eps)                                               *)
(* ------------------------------------------------------------------ *)

let test_dist_one_plus_eps_quality () =
  let rng = Rng.create 7 in
  for trial = 0 to 4 do
    let g = Gen.gnp rng ~n:40 ~p:0.15 in
    let m, _ = Matching_dist.one_plus_eps rng g ~eps:0.34 in
    check_bool "valid" true (Matching.is_valid g m);
    check_bool "maximal" true (Matching.is_maximal g m);
    let opt = Matching.size (Blossom.solve g) in
    check_bool
      (Printf.sprintf "quality trial %d: %d vs opt %d" trial (Matching.size m)
         opt)
      true
      (float_of_int opt <= 1.34 *. float_of_int (Matching.size m))
  done

let test_dist_one_plus_eps_on_paths () =
  (* long paths are the classic hard case for local augmentation *)
  let rng = Rng.create 8 in
  let g = Gen.path 30 in
  let m, _ = Matching_dist.one_plus_eps rng g ~eps:0.25 in
  let opt = Matching.size (Blossom.solve g) in
  check_bool
    (Printf.sprintf "path quality %d vs %d" (Matching.size m) opt)
    true
    (float_of_int opt <= 1.25 *. float_of_int (Matching.size m))

let test_dist_rounds_independent_of_n () =
  (* fixed degree and eps: rounds should not grow with n (the log* n term
     is invisible at these scales; we check near-constancy) *)
  let rounds_for n =
    let rng = Rng.create 9 in
    let g = Gen.cycle n in
    let _, st = Matching_dist.one_plus_eps ~attempts_per_phase:8 rng g ~eps:0.5 in
    st.Matching_dist.rounds
  in
  let r1 = rounds_for 50 and r2 = rounds_for 400 in
  check_bool
    (Printf.sprintf "rounds %d (n=50) vs %d (n=400)" r1 r2)
    true
    (float_of_int r2 <= 3.0 *. float_of_int (max r1 1))

(* ------------------------------------------------------------------ *)
(* Deterministic maximal matching (Cole-Vishkin based)                *)
(* ------------------------------------------------------------------ *)

let test_det_forest_decomposition () =
  let rng = Rng.create 41 in
  let g = Gen.gnp rng ~n:30 ~p:0.3 in
  let forests = Det_matching.forests_of g in
  (* every out-edge goes to a larger id and each edge appears exactly once *)
  let total = ref 0 in
  Array.iteri
    (fun v outs ->
      Array.iter
        (fun u ->
          check_bool "oriented upward" true (u > v);
          check_bool "is an edge" true (Graph.has_edge g v u);
          incr total)
        outs)
    forests;
  check "every edge in exactly one forest slot" (Graph.m g) !total

let test_det_maximal_correct () =
  let rng = Rng.create 42 in
  for _ = 0 to 14 do
    let g = Gen.gnp rng ~n:35 ~p:0.2 in
    let m, _ = Det_matching.maximal g in
    check_bool "valid" true (Matching.is_valid g m);
    check_bool "maximal" true (Matching.is_maximal g m)
  done;
  (* structured instances *)
  List.iter
    (fun g ->
      let m, _ = Det_matching.maximal g in
      check_bool "valid structured" true (Matching.is_valid g m);
      check_bool "maximal structured" true (Matching.is_maximal g m))
    [
      Gen.path 20; Gen.cycle 21; Gen.star 15; Gen.complete 12;
      Gen.grid ~rows:5 ~cols:6; Gen.empty 5; Gen.perfect_matching 10;
    ]

let test_det_is_deterministic () =
  let g = Gen.gnp (Rng.create 43) ~n:40 ~p:0.25 in
  let m1, s1 = Det_matching.maximal g in
  let m2, s2 = Det_matching.maximal g in
  check_bool "identical matchings" true (Matching.edges m1 = Matching.edges m2);
  check "identical rounds" s1.Det_matching.rounds s2.Det_matching.rounds

let test_det_round_structure () =
  (* coloring rounds grow like log* (i.e. are essentially flat in n);
     stage rounds are 6 * #forests *)
  let rounds_for n =
    let g = Gen.cycle n in
    let _, s = Det_matching.maximal g in
    s
  in
  let s1 = rounds_for 50 and s2 = rounds_for 800 in
  check_bool
    (Printf.sprintf "coloring flat-ish: %d vs %d" s1.Det_matching.coloring_rounds
       s2.Det_matching.coloring_rounds)
    true
    (s2.Det_matching.coloring_rounds <= s1.Det_matching.coloring_rounds + 3);
  (* cycles have max out-degree <= 2: stage rounds <= 2 forests * 3 colors * 2 *)
  check_bool "stage rounds bounded by structure" true
    (s2.Det_matching.stage_rounds <= 12)

let qcheck_det_maximal =
  QCheck.Test.make ~name:"deterministic matching is valid and maximal"
    ~count:50
    QCheck.(pair (int_range 2 30) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
      let m, _ = Det_matching.maximal g in
      Matching.is_valid g m && Matching.is_maximal g m)

(* ------------------------------------------------------------------ *)
(* Theorem 3.3: sublinear message complexity                          *)
(* ------------------------------------------------------------------ *)

let test_message_complexity_vs_baseline () =
  let rng = Rng.create 10 in
  let g = Gen.complete 120 in
  let r = Pipeline_dist.run_maximal_only ~multiplier:1.0 rng g ~beta:1 ~eps:0.5 in
  let _, base_st = Matching_dist.full_graph_baseline rng g in
  check_bool "pipeline matching valid" true (Matching.is_valid g r.Pipeline_dist.matching);
  check_bool
    (Printf.sprintf "messages %d < baseline %d" r.Pipeline_dist.messages
       base_st.Matching_dist.messages)
    true
    (r.Pipeline_dist.messages < base_st.Matching_dist.messages);
  (* baseline must touch Omega(m) edges; the pipeline stays near n * poly *)
  check_bool "baseline is Omega(m)" true
    (base_st.Matching_dist.messages >= Graph.m g);
  check_bool "pipeline sublinear in m" true
    (r.Pipeline_dist.messages < Graph.m g)

let test_full_pipeline_quality () =
  let rng = Rng.create 11 in
  let g = Gen.complete 60 in
  let r = Pipeline_dist.run ~multiplier:1.0 rng g ~beta:1 ~eps:0.5 in
  let opt = Matching.size (Blossom.solve g) in
  let got = Matching.size r.Pipeline_dist.matching in
  (* two sparsifier factors (1+eps)^2 and the matcher factor (1+eps) *)
  check_bool
    (Printf.sprintf "full pipeline: %d vs opt %d" got opt)
    true
    (float_of_int opt <= 1.5 *. 1.5 *. float_of_int got)

(* ------------------------------------------------------------------ *)
(* CONGEST word size                                                  *)
(* ------------------------------------------------------------------ *)

let test_ceil_log2_boundaries () =
  (* reference implementation by exhaustive doubling *)
  let naive n =
    if n <= 1 then 0
    else begin
      let k = ref 0 in
      while (1 lsl !k) < n do
        incr k
      done;
      !k
    end
  in
  check "n=0" 0 (Network.ceil_log2 0);
  check "n=1" 0 (Network.ceil_log2 1);
  for k = 1 to 20 do
    let p = 1 lsl k in
    (* exact powers of two and both neighbors: the float-log formulation
       misrounds exactly here *)
    check (Printf.sprintf "2^%d" k) k (Network.ceil_log2 p);
    check (Printf.sprintf "2^%d + 1" k) (k + 1) (Network.ceil_log2 (p + 1));
    check (Printf.sprintf "2^%d - 1" k) (naive (p - 1)) (Network.ceil_log2 (p - 1))
  done;
  (* spot-check against the reference away from boundaries *)
  let rng = Rng.create 99 in
  for _ = 0 to 199 do
    let n = 2 + Rng.int rng (1 lsl 20) in
    check (Printf.sprintf "naive agreement n=%d" n) (naive n)
      (Network.ceil_log2 n)
  done;
  (* congest_word on a real network: word of an n-vertex graph *)
  let net : unit Network.t = Network.create (Gen.path 1024) in
  check "congest word 1024" 10 (Network.congest_word net);
  let net : unit Network.t = Network.create (Gen.path 1025) in
  check "congest word 1025" 11 (Network.congest_word net)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let test_faults_plan_validation () =
  let bad name f =
    check_bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  bad "drop < 0" (fun () -> Faults.plan ~drop:(-0.1) (Rng.create 1));
  bad "drop = 1" (fun () -> Faults.plan ~drop:1.0 (Rng.create 1));
  bad "reorder 0" (fun () -> Faults.plan ~reorder:0 (Rng.create 1));
  bad "delay 0" (fun () -> Faults.plan ~straggler:[ (0, 0) ] (Rng.create 1));
  ignore (Faults.plan ~drop:0.5 ~duplicate:0.5 ~reorder:3 (Rng.create 1))

let test_faults_benign_plan_is_transparent () =
  (* a plan with all-default knobs routes through the fault code path but
     must not change the execution *)
  let g = Gen.gnp (Rng.create 41) ~n:50 ~p:0.2 in
  let s0, st0 = Sparsify_dist.gdelta (Rng.create 42) g ~delta:3 in
  let faults = Faults.plan (Rng.create 7) in
  let s1, st1 = Sparsify_dist.gdelta ~faults (Rng.create 42) g ~delta:3 in
  check_bool "same sparsifier" true (Graph.equal s0 s1);
  check "same messages" st0.Sparsify_dist.messages st1.Sparsify_dist.messages;
  check "no drops" 0 st1.Sparsify_dist.faults.Faults.dropped;
  check "no dups" 0 st1.Sparsify_dist.faults.Faults.duplicated

let test_faults_drop_accounting () =
  (* delivered + dropped = sent, and the drop counter actually moves *)
  let faults = Faults.plan ~drop:0.5 (Rng.create 3) in
  let net : unit Network.t = Network.create ~faults (Gen.path 2) in
  let delivered = ref 0 in
  for _ = 1 to 100 do
    Network.send net ~src:0 ~dst:1 ();
    Network.deliver net;
    delivered := !delivered + List.length (Network.inbox net 1)
  done;
  check "all sends metered" 100 (Network.messages net);
  check_bool "some drops" true (Network.dropped net > 0);
  check_bool "not all dropped" true (Network.dropped net < 100);
  check "conservation" 100 (!delivered + Network.dropped net)

let test_faults_duplicate_accounting () =
  let faults = Faults.plan ~duplicate:0.5 (Rng.create 4) in
  let net : unit Network.t = Network.create ~faults (Gen.path 2) in
  let delivered = ref 0 in
  for _ = 1 to 100 do
    Network.send net ~src:0 ~dst:1 ();
    Network.deliver net;
    delivered := !delivered + List.length (Network.inbox net 1)
  done;
  (* duplicates are a link-level artifact: sender pays for one message *)
  check "sends metered once" 100 (Network.messages net);
  check_bool "some duplicates" true (Network.duplicated net > 0);
  check "conservation with dups" (100 + Network.duplicated net) !delivered

let test_faults_straggler_delay () =
  let faults = Faults.plan ~straggler:[ (0, 3) ] (Rng.create 5) in
  let net : int Network.t = Network.create ~faults (Gen.path 2) in
  Network.send net ~src:0 ~dst:1 7;
  (* a non-delayed message would arrive at the first deliver; delay 3
     pushes the arrival three rounds further *)
  for r = 1 to 3 do
    Network.deliver net;
    check_bool (Printf.sprintf "still pending after round %d" r) true
      (Network.inbox net 1 = [])
  done;
  Network.deliver net;
  check_bool "arrived late" true (Network.inbox net 1 = [ (0, 7) ]);
  check "delayed counted" 1 (Network.delayed net);
  (* the reverse direction is unaffected *)
  Network.send net ~src:1 ~dst:0 9;
  Network.deliver net;
  check_bool "non-straggler direction on time" true
    (Network.inbox net 0 = [ (1, 9) ])

let test_faults_crash_semantics () =
  let faults = Faults.plan ~crashed:[ 0 ] (Rng.create 6) in
  let net : unit Network.t = Network.create ~faults (Gen.path 3) in
  check_bool "failure detector" true (Network.is_crashed net 0);
  check_bool "live vertex" false (Network.is_crashed net 1);
  (* sends from a crashed processor are silent no-ops *)
  Network.send net ~src:0 ~dst:1 ();
  check "crashed send not metered" 0 (Network.messages net);
  (* sends to a crashed processor are paid for but never read *)
  Network.send net ~src:1 ~dst:0 ();
  Network.deliver net;
  check "live send metered" 1 (Network.messages net);
  check_bool "crashed inbox empty" true (Network.inbox net 0 = [])

let test_reliable_equals_gdelta_fault_free () =
  let g = Gen.gnp (Rng.create 20) ~n:60 ~p:0.15 in
  let s0, _ = Sparsify_dist.gdelta (Rng.create 21) g ~delta:4 in
  let s1, r = Sparsify_dist.gdelta_reliable (Rng.create 21) g ~delta:4 ~retries:3 in
  check_bool "identical sparsifier" true (Graph.equal s0 s1);
  check "one attempt" 1 r.Sparsify_dist.attempts;
  check "nothing unacked" 0 r.Sparsify_dist.unacked;
  check "mark + ack rounds" 2 r.Sparsify_dist.base.Sparsify_dist.rounds

let test_reliable_recovery_acceptance () =
  (* the acceptance bar from the issue: drop 0.2, retry budget 3, fixed
     G(n,p) seed — the self-healing sparsifier recovers >= 0.99 of the
     fault-free sparsifier's matching size *)
  let g = Gen.gnp (Rng.create 30) ~n:200 ~p:0.1 in
  let free, _ = Sparsify_dist.gdelta (Rng.create 31) g ~delta:4 in
  let faults = Faults.plan ~drop:0.2 (Rng.create 32) in
  let healed, r =
    Sparsify_dist.gdelta_reliable ~faults (Rng.create 31) g ~delta:4 ~retries:3
  in
  let mcm s = Matching.size (Blossom.solve s) in
  let reference = mcm free and got = mcm healed in
  check_bool "faults were injected" true
    (r.Sparsify_dist.base.Sparsify_dist.faults.Faults.dropped > 0);
  check_bool
    (Printf.sprintf "recovery %d vs %d" got reference)
    true
    (float_of_int got >= 0.99 *. float_of_int reference)

let test_reliable_drops_need_retries () =
  (* with no retry budget a heavy drop rate visibly thins the sparsifier;
     the budget buys the edges back *)
  let g = Gen.gnp (Rng.create 50) ~n:100 ~p:0.15 in
  let s_free, _ = Sparsify_dist.gdelta (Rng.create 51) g ~delta:4 in
  let run retries =
    let faults = Faults.plan ~drop:0.4 (Rng.create 52) in
    let s, r =
      Sparsify_dist.gdelta_reliable ~faults (Rng.create 51) g ~delta:4 ~retries
    in
    (Graph.m s, r.Sparsify_dist.unacked)
  in
  let m0, unacked0 = run 0 in
  let m5, unacked5 = run 5 in
  check_bool "retries recover edges" true (m5 > m0);
  check_bool "retries shrink the unacked set" true (unacked5 < unacked0);
  check_bool "near-complete recovery" true (m5 >= Graph.m s_free * 99 / 100)

let test_maximal_with_crashes () =
  let g = Gen.gnp (Rng.create 60) ~n:50 ~p:0.2 in
  let crashed = [ 3; 17; 29 ] in
  let faults = Faults.plan ~crashed (Rng.create 61) in
  let m, _ = Matching_dist.maximal ~faults (Rng.create 62) g in
  check_bool "valid" true (Matching.is_valid g m);
  List.iter
    (fun v -> check_bool "crashed vertex unmatched" false (Matching.is_matched m v))
    crashed;
  (* maximal among survivors: no edge with both endpoints live and free *)
  let live v = not (List.mem v crashed) in
  Graph.iter_edges g (fun u v ->
      if live u && live v then
        check_bool
          (Printf.sprintf "survivor edge %d-%d dominated" u v)
          true
          (Matching.is_matched m u || Matching.is_matched m v))

let test_one_plus_eps_under_drops () =
  (* graceful degradation: with lossy links the matching must stay valid
     (size may degrade, validity may not) *)
  let g = Gen.gnp (Rng.create 70) ~n:40 ~p:0.2 in
  let faults = Faults.plan ~drop:0.3 ~duplicate:0.2 ~reorder:3 (Rng.create 71) in
  let m, st = Matching_dist.one_plus_eps ~faults (Rng.create 72) g ~eps:0.5 in
  check_bool "valid under drops" true (Matching.is_valid g m);
  check_bool "drops occurred" true (st.Matching_dist.faults.Faults.dropped > 0);
  (* the matching still does real work: at least half of a maximal size *)
  let m_free, _ = Matching_dist.maximal (Rng.create 72) g in
  check_bool "not collapsed" true
    (2 * Matching.size m >= Matching.size m_free)

let test_det_maximal_with_crashes () =
  let g = Gen.gnp (Rng.create 80) ~n:40 ~p:0.15 in
  let crashed = [ 1; 20 ] in
  let faults = Faults.plan ~crashed (Rng.create 81) in
  let m, _ = Det_matching.maximal ~faults g in
  check_bool "valid" true (Matching.is_valid g m);
  List.iter
    (fun v -> check_bool "crashed vertex unmatched" false (Matching.is_matched m v))
    crashed

let test_solomon_with_crashes () =
  let g = Gen.complete 30 in
  let faults = Faults.plan ~crashed:[ 0; 1 ] (Rng.create 90) in
  let s, _ = Sparsify_dist.solomon ~faults g ~delta_alpha:4 in
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
  (* a crashed vertex marks nothing and its marks are read by nobody, so
     no surviving edge touches it *)
  Graph.iter_edges s (fun u v ->
      check_bool
        (Printf.sprintf "edge %d-%d avoids crashed" u v)
        true
        (u > 1 && v > 1))

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let qcheck_matching_valid_under_faults =
  (* whatever the fault plan, the returned matching is a matching *)
  QCheck.Test.make ~name:"matching stays valid under arbitrary fault plans"
    ~count:40
    QCheck.(
      quad (int_range 4 30) (int_range 0 1000)
        (pair (int_range 0 9) (int_range 0 9))
        (int_range 0 3))
    (fun (n, seed, (drop10, dup10), ncrash) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.25 in
      let frng = Rng.create (seed + 1) in
      let crashed =
        if ncrash = 0 then []
        else Rng.sample_distinct frng ~k:(min ncrash n) ~n |> Array.to_list
      in
      let faults =
        Faults.plan
          ~drop:(float_of_int drop10 /. 10.0)
          ~duplicate:(float_of_int dup10 /. 10.0)
          ~reorder:2 ~crashed frng
      in
      let m, _ = Matching_dist.maximal ~faults (Rng.create seed) g in
      Matching.is_valid g m
      && List.for_all (fun v -> not (Matching.is_matched m v)) crashed)

let qcheck_maximal_always =
  QCheck.Test.make ~name:"distributed maximal matching is valid and maximal"
    ~count:40
    QCheck.(pair (int_range 2 35) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let m, _ = Matching_dist.maximal rng g in
      Matching.is_valid g m && Matching.is_maximal g m)

let qcheck_walker_never_invalid =
  QCheck.Test.make ~name:"walker algorithm always returns a valid matching"
    ~count:25
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.25 in
      let m, _ =
        Matching_dist.one_plus_eps ~attempts_per_phase:6 rng g ~eps:0.5
      in
      Matching.is_valid g m)

let qcheck_walker_improves_or_equals_maximal =
  QCheck.Test.make
    ~name:"walker phase never shrinks the matching below maximal size" ~count:25
    QCheck.(pair (int_range 4 25) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
      let m_max, _ = Matching_dist.maximal (Rng.create seed) g in
      let m_eps, _ =
        Matching_dist.one_plus_eps ~attempts_per_phase:6 (Rng.create seed) g
          ~eps:0.5
      in
      Matching.size m_eps >= Matching.size m_max)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        qcheck_maximal_always;
        qcheck_walker_never_invalid;
        qcheck_walker_improves_or_equals_maximal;
        qcheck_det_maximal;
        qcheck_matching_valid_under_faults;
      ]
  in
  Alcotest.run "mspar_distsim"
    [
      ( "network",
        [
          Alcotest.test_case "basic rounds" `Quick test_network_basic;
          Alcotest.test_case "non-neighbor rejected" `Quick
            test_network_rejects_non_neighbor;
          Alcotest.test_case "broadcast and bits" `Quick
            test_network_broadcast_and_bits;
          Alcotest.test_case "skip rounds" `Quick test_network_skip_rounds;
          Alcotest.test_case "ceil_log2 boundaries" `Quick
            test_ceil_log2_boundaries;
        ] );
      ( "faults",
        [
          Alcotest.test_case "plan validation" `Quick test_faults_plan_validation;
          Alcotest.test_case "benign plan transparent" `Quick
            test_faults_benign_plan_is_transparent;
          Alcotest.test_case "drop accounting" `Quick test_faults_drop_accounting;
          Alcotest.test_case "duplicate accounting" `Quick
            test_faults_duplicate_accounting;
          Alcotest.test_case "straggler delay" `Quick test_faults_straggler_delay;
          Alcotest.test_case "crash semantics" `Quick test_faults_crash_semantics;
          Alcotest.test_case "reliable = gdelta fault-free" `Quick
            test_reliable_equals_gdelta_fault_free;
          Alcotest.test_case "recovery acceptance" `Quick
            test_reliable_recovery_acceptance;
          Alcotest.test_case "retries buy edges back" `Quick
            test_reliable_drops_need_retries;
          Alcotest.test_case "maximal with crashes" `Quick
            test_maximal_with_crashes;
          Alcotest.test_case "walker under drops" `Quick
            test_one_plus_eps_under_drops;
          Alcotest.test_case "deterministic with crashes" `Quick
            test_det_maximal_with_crashes;
          Alcotest.test_case "solomon with crashes" `Quick
            test_solomon_with_crashes;
        ] );
      ( "sparsify",
        [
          Alcotest.test_case "gdelta single round" `Quick
            test_dist_gdelta_single_round;
          Alcotest.test_case "gdelta quality" `Quick
            test_dist_gdelta_matches_quality;
          Alcotest.test_case "gdelta = sequential G_delta" `Quick
            test_dist_gdelta_equals_sequential;
          Alcotest.test_case "solomon" `Quick test_dist_solomon;
          Alcotest.test_case "composed" `Quick test_dist_composed;
        ] );
      ( "maximal",
        [
          Alcotest.test_case "valid and maximal" `Quick test_dist_maximal;
          Alcotest.test_case "edge cases" `Quick test_dist_maximal_empty_and_tiny;
        ] );
      ( "one-plus-eps",
        [
          Alcotest.test_case "quality" `Quick test_dist_one_plus_eps_quality;
          Alcotest.test_case "paths" `Quick test_dist_one_plus_eps_on_paths;
          Alcotest.test_case "rounds independent of n" `Quick
            test_dist_rounds_independent_of_n;
        ] );
      ( "deterministic",
        [
          Alcotest.test_case "forest decomposition" `Quick
            test_det_forest_decomposition;
          Alcotest.test_case "maximal correct" `Quick test_det_maximal_correct;
          Alcotest.test_case "deterministic" `Quick test_det_is_deterministic;
          Alcotest.test_case "round structure" `Quick test_det_round_structure;
        ] );
      ( "messages",
        [
          Alcotest.test_case "sublinear vs baseline" `Quick
            test_message_complexity_vs_baseline;
          Alcotest.test_case "full pipeline quality" `Quick
            test_full_pipeline_quality;
        ] );
      ("properties", qsuite);
    ]
