(* Tests for mspar_dynamic: the dynamic graph structure, the Gupta-Peng
   windowed (1+eps) maintainer (Theorem 3.5), the maximal-matching baseline,
   and the adaptive adversary. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_dynamic

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Dyn_graph                                                          *)
(* ------------------------------------------------------------------ *)

let test_dyn_graph_basic () =
  let dg = Dyn_graph.create 5 in
  check "empty m" 0 (Dyn_graph.m dg);
  check_bool "insert new" true (Dyn_graph.insert dg 0 1);
  check_bool "insert dup" false (Dyn_graph.insert dg 1 0);
  check_bool "insert self-loop" false (Dyn_graph.insert dg 2 2);
  check "m" 1 (Dyn_graph.m dg);
  check "deg 0" 1 (Dyn_graph.degree dg 0);
  check_bool "has edge" true (Dyn_graph.has_edge dg 1 0);
  check_bool "delete" true (Dyn_graph.delete dg 0 1);
  check_bool "delete absent" false (Dyn_graph.delete dg 0 1);
  check "m back to 0" 0 (Dyn_graph.m dg);
  check "deg back to 0" 0 (Dyn_graph.degree dg 0)

(* Every id is range-checked, either endpoint: an out-of-range [v] must
   not read as an absent edge. *)
let test_dyn_graph_out_of_range () =
  let dg = Dyn_graph.create 4 in
  ignore (Dyn_graph.insert dg 0 1);
  List.iter
    (fun (u, v) ->
      check_bool
        (Printf.sprintf "has_edge %d %d raises" u v)
        true
        (match Dyn_graph.has_edge dg u v with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (0, 4); (4, 0); (-1, 1); (1, -1); (0, 2053) ];
  check_bool "in-range pair still answers" true (Dyn_graph.has_edge dg 1 0)

let test_dyn_graph_vs_reference () =
  (* random update stream cross-checked against a naive edge set *)
  let rng = Rng.create 1 in
  let n = 20 in
  let dg = Dyn_graph.create n in
  let reference = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = (min u v, max u v) in
      if Rng.bool rng then begin
        let expected = not (Hashtbl.mem reference key) in
        let got = Dyn_graph.insert dg u v in
        if got <> expected then Alcotest.fail "insert disagrees";
        Hashtbl.replace reference key ()
      end
      else begin
        let expected = Hashtbl.mem reference key in
        let got = Dyn_graph.delete dg u v in
        if got <> expected then Alcotest.fail "delete disagrees";
        Hashtbl.remove reference key
      end
    end
  done;
  check "final m agrees" (Hashtbl.length reference) (Dyn_graph.m dg);
  let snap = Dyn_graph.snapshot dg in
  check "snapshot m" (Hashtbl.length reference) (Graph.m snap);
  List.iter
    (fun (u, v) ->
      check_bool "snapshot edge present" true (Hashtbl.mem reference (u, v)))
    (Dyn_graph.edges dg)

let test_dyn_graph_sampling () =
  let rng = Rng.create 2 in
  let dg = Dyn_graph.create 10 in
  for v = 1 to 9 do
    ignore (Dyn_graph.insert dg 0 v)
  done;
  check_bool "no neighbor for isolated" true
    (Dyn_graph.random_neighbor dg rng 5 = Some 0);
  let samples = Dyn_graph.sample_neighbors dg rng 0 ~k:4 in
  check "four distinct" 4 (List.length (List.sort_uniq compare samples));
  List.iter (fun u -> check_bool "sampled is neighbor" true (u >= 1 && u <= 9)) samples;
  let all = Dyn_graph.sample_neighbors dg rng 0 ~k:100 in
  check "k capped at degree" 9 (List.length all)

let test_dyn_graph_non_isolated () =
  let dg = Dyn_graph.create 6 in
  check "none active" 0 (Dyn_graph.non_isolated_count dg);
  ignore (Dyn_graph.insert dg 0 1);
  ignore (Dyn_graph.insert dg 2 3);
  check "four active" 4 (Dyn_graph.non_isolated_count dg);
  ignore (Dyn_graph.delete dg 0 1);
  check "two active" 2 (Dyn_graph.non_isolated_count dg);
  let seen = ref [] in
  Dyn_graph.iter_non_isolated dg (fun v -> seen := v :: !seen);
  check_bool "iterates exactly the active set" true
    (List.sort compare !seen = [ 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Dyn_matching                                                       *)
(* ------------------------------------------------------------------ *)

let test_dyn_matching_validity_under_churn () =
  let rng = Rng.create 3 in
  let n = 30 in
  let dm = Dyn_matching.create (Rng.split rng) ~n ~beta:6 ~eps:0.5 in
  for _ = 1 to 1500 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      if Rng.bernoulli rng 0.35 then ignore (Dyn_matching.delete dm u v)
      else ignore (Dyn_matching.insert dm u v);
    (* the output matching must always be valid on the current graph *)
    let m = Dyn_matching.matching dm in
    let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
    if not (Matching.is_valid g m) then Alcotest.fail "invalid matching"
  done;
  check_bool "some updates recorded" true ((Dyn_matching.stats dm).Dyn_matching.updates > 0)

let test_dyn_matching_approximation_random () =
  (* against a random stream on a bounded-beta family the maintained
     matching should stay within (1+eps) of optimal, with the window slack *)
  let rng = Rng.create 4 in
  let n = 40 in
  let dm = Dyn_matching.create (Rng.split rng) ~n ~beta:1 ~eps:0.5 in
  (* insert a clique step by step; check ratio at checkpoints *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Dyn_matching.insert dm u v)
    done
  done;
  let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
  let opt = Matching.size (Blossom.solve g) in
  let got = Dyn_matching.size dm in
  check_bool
    (Printf.sprintf "clique stream: %d vs opt %d" got opt)
    true
    (float_of_int opt <= 1.8 *. float_of_int got)

let test_dyn_matching_adaptive_adversary () =
  (* the adversary deletes a matched edge every step; approximation must
     survive because each window's matching is recomputed from fresh
     randomness *)
  let rng = Rng.create 5 in
  let n = 40 in
  let dm = Dyn_matching.create (Rng.split rng) ~n ~beta:1 ~eps:0.5 in
  (* warm up: a clique *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Dyn_matching.insert dm u v)
    done
  done;
  let adversary_rng = Rng.create 99 in
  for _ = 1 to 300 do
    let dg = Dyn_matching.graph dm in
    let mate v = Matching.mate (Dyn_matching.matching dm) v in
    match
      Adversary.next_op Adversary.Adaptive_target_matching adversary_rng dg
        ~current_mate:mate
    with
    | Some (Adversary.Delete (u, v)) -> ignore (Dyn_matching.delete dm u v)
    | Some (Adversary.Insert (u, v)) -> ignore (Dyn_matching.insert dm u v)
    | None -> ()
  done;
  let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
  let opt = Matching.size (Blossom.solve g) in
  let got = Dyn_matching.size dm in
  check_bool
    (Printf.sprintf "adaptive: %d vs opt %d" got opt)
    true
    (opt = 0 || float_of_int opt <= 2.0 *. float_of_int got);
  check_bool "graph still dense enough to matter" true (opt > 5)

let test_dyn_matching_adaptive_long_run () =
  (* end-to-end soak against the adaptive adversary: >= 1000 adaptive
     updates, with the (1+eps) ratio (plus the window slack of the
     lazy-rebuild schedule) asserted at periodic checkpoints, not just at
     the end — the adversary sees the maintained mate function at every
     step, so this exercises exactly the adaptivity the window rebuild is
     supposed to defeat *)
  let rng = Rng.create 55 in
  let n = 60 in
  let eps = 0.5 in
  let dm = Dyn_matching.create (Rng.split rng) ~n ~beta:1 ~eps in
  (* warm up with a random dense-ish graph so deletions have targets *)
  let warm = Gen.gnp (Rng.create 56) ~n ~p:0.25 in
  Graph.iter_edges warm (fun u v -> ignore (Dyn_matching.insert dm u v));
  let adversary_rng = Rng.create 57 in
  let updates = ref 0 in
  let checkpoints = ref 0 in
  for step = 1 to 1200 do
    let dg = Dyn_matching.graph dm in
    let mate v = Matching.mate (Dyn_matching.matching dm) v in
    (match
       Adversary.next_op Adversary.Adaptive_target_matching adversary_rng dg
         ~current_mate:mate
     with
    | Some (Adversary.Delete (u, v)) ->
        incr updates;
        ignore (Dyn_matching.delete dm u v)
    | Some (Adversary.Insert (u, v)) ->
        incr updates;
        ignore (Dyn_matching.insert dm u v)
    | None -> ());
    if step mod 50 = 0 then begin
      incr checkpoints;
      let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
      let m = Dyn_matching.matching dm in
      if not (Matching.is_valid g m) then
        Alcotest.failf "invalid matching at step %d" step;
      let opt = Matching.size (Blossom.solve g) in
      let got = Matching.size m in
      (* (1+eps) with an additive window allowance: a rebuild window may
         be mid-flight at a checkpoint *)
      check_bool
        (Printf.sprintf "checkpoint step %d: %d vs opt %d" step got opt)
        true
        (float_of_int opt <= ((1.0 +. eps) *. float_of_int got) +. 2.0)
    end
  done;
  check_bool
    (Printf.sprintf "enough adaptive updates: %d" !updates)
    true (!updates >= 1000);
  check "all checkpoints hit" 24 !checkpoints;
  let st = Dyn_matching.stats dm in
  check_bool "adversary forced rebuild activity" true
    (st.Dyn_matching.rebuilds > 0)

let test_dyn_matching_work_bound () =
  (* the spread worst-case work per update must not grow with n for fixed
     beta and eps (Theorem 3.5); compare two sizes of clique streams *)
  let spread_for n =
    let rng = Rng.create 7 in
    let dm = Dyn_matching.create rng ~n ~beta:1 ~eps:0.5 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        ignore (Dyn_matching.insert dm u v)
      done
    done;
    (Dyn_matching.stats dm).Dyn_matching.max_spread_work
  in
  let s_small = spread_for 30 and s_large = spread_for 90 in
  check_bool
    (Printf.sprintf "spread work: %d (n=30) vs %d (n=90)" s_small s_large)
    true
    (float_of_int s_large <= 4.0 *. float_of_int (max s_small 1))

let test_dyn_matching_force_rebuild () =
  let rng = Rng.create 8 in
  let dm = Dyn_matching.create rng ~n:10 ~beta:1 ~eps:0.5 in
  ignore (Dyn_matching.insert dm 0 1);
  ignore (Dyn_matching.insert dm 2 3);
  Dyn_matching.force_rebuild dm;
  check "matching found" 2 (Dyn_matching.size dm);
  check_bool "rebuild counted" true
    ((Dyn_matching.stats dm).Dyn_matching.rebuilds >= 1)

(* ------------------------------------------------------------------ *)
(* Dyn_sparsifier (oblivious-adversary G_delta maintenance)           *)
(* ------------------------------------------------------------------ *)

let test_dyn_sparsifier_invariants_under_churn () =
  let rng = Rng.create 21 in
  let n = 25 in
  let ds = Dyn_sparsifier.create (Rng.split rng) ~n ~delta:3 in
  for step = 1 to 800 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      if Rng.bernoulli rng 0.35 then ignore (Dyn_sparsifier.delete ds u v)
      else ignore (Dyn_sparsifier.insert ds u v);
    if step mod 50 = 0 then
      check_bool
        (Printf.sprintf "invariants at step %d" step)
        true
        (Dyn_sparsifier.check_invariants ds)
  done;
  (* the maintained sparsifier is a subgraph of the current graph with the
     min-degree guarantee *)
  let g = Dyn_graph.snapshot (Dyn_sparsifier.graph ds) in
  let s = Dyn_sparsifier.sparsifier ds in
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
  check "edge count agrees" (Graph.m s) (Dyn_sparsifier.sparsifier_edge_count ds)

let test_dyn_sparsifier_update_work_is_o_delta () =
  let rng = Rng.create 22 in
  let n = 60 and delta = 4 in
  let ds = Dyn_sparsifier.create (Rng.split rng) ~n ~delta in
  (* dense graph so degrees are large: resampling must still cost O(delta) *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Dyn_sparsifier.insert ds u v)
    done
  done;
  let s = Dyn_sparsifier.stats ds in
  (* each update resamples two endpoints: <= 2 * 2*delta marks + 1 *)
  check_bool "worst update work O(delta)" true
    (s.Dyn_sparsifier.max_update_work <= (4 * delta) + 1)

let test_dyn_sparsifier_quality_snapshot () =
  (* under an oblivious stream the per-snapshot distribution equals the
     static G_delta, so the matching quality carries over *)
  let rng = Rng.create 23 in
  let n = 80 and delta = 8 in
  let ds = Dyn_sparsifier.create (Rng.split rng) ~n ~delta in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Dyn_sparsifier.insert ds u v)
    done
  done;
  let s = Dyn_sparsifier.sparsifier ds in
  let opt_s = Matching.size (Blossom.solve s) in
  check_bool
    (Printf.sprintf "snapshot quality %d vs %d" opt_s (n / 2))
    true
    (float_of_int (n / 2) <= 1.5 *. float_of_int opt_s)

let test_dyn_sparsifier_deletion_cleans_marks () =
  let rng = Rng.create 24 in
  let ds = Dyn_sparsifier.create rng ~n:4 ~delta:2 in
  ignore (Dyn_sparsifier.insert ds 0 1);
  ignore (Dyn_sparsifier.insert ds 2 3);
  ignore (Dyn_sparsifier.delete ds 0 1);
  let s = Dyn_sparsifier.sparsifier ds in
  check_bool "deleted edge not in sparsifier" false (Graph.has_edge s 0 1);
  check_bool "other edge survives" true (Graph.has_edge s 2 3);
  check_bool "invariants" true (Dyn_sparsifier.check_invariants ds)

(* ------------------------------------------------------------------ *)
(* Baseline                                                           *)
(* ------------------------------------------------------------------ *)

let test_baseline_maximal_invariant () =
  let rng = Rng.create 9 in
  let n = 25 in
  let b = Baseline_dynamic.create ~n in
  for _ = 1 to 1200 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      if Rng.bernoulli rng 0.35 then ignore (Baseline_dynamic.delete b u v)
      else ignore (Baseline_dynamic.insert b u v);
    let g = Dyn_graph.snapshot (Baseline_dynamic.graph b) in
    let m = Baseline_dynamic.matching b in
    if not (Matching.is_valid g m) then Alcotest.fail "baseline invalid";
    if not (Matching.is_maximal g m) then Alcotest.fail "baseline not maximal"
  done;
  check_bool "work accounted" true
    ((Baseline_dynamic.stats b).Baseline_dynamic.total_work > 0)

let test_baseline_work_grows_with_density () =
  (* deleting matched edges in a clique forces Theta(deg) repair scans *)
  let work_for n =
    let b = Baseline_dynamic.create ~n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        ignore (Baseline_dynamic.insert b u v)
      done
    done;
    let rng = Rng.create 10 in
    for _ = 1 to 50 do
      let m = Baseline_dynamic.matching b in
      match Matching.edges m with
      | [] -> ()
      | edges ->
          let u, v = List.nth edges (Rng.int rng (List.length edges)) in
          ignore (Baseline_dynamic.delete b u v);
          ignore (Baseline_dynamic.insert b u v)
    done;
    (Baseline_dynamic.stats b).Baseline_dynamic.max_update_work
  in
  let w30 = work_for 30 and w120 = work_for 120 in
  check_bool
    (Printf.sprintf "baseline repair grows: %d (n=30) vs %d (n=120)" w30 w120)
    true
    (w120 >= 2 * w30)

(* ------------------------------------------------------------------ *)
(* Adversary                                                          *)
(* ------------------------------------------------------------------ *)

let test_adversary_random_churn () =
  let rng = Rng.create 11 in
  let dg = Dyn_graph.create 12 in
  let mate _ = -1 in
  let inserts = ref 0 and deletes = ref 0 in
  for _ = 1 to 400 do
    match Adversary.next_op (Adversary.Random_churn 0.4) rng dg ~current_mate:mate with
    | Some (Adversary.Insert (u, v)) ->
        incr inserts;
        ignore (Dyn_graph.insert dg u v)
    | Some (Adversary.Delete (u, v)) ->
        incr deletes;
        ignore (Dyn_graph.delete dg u v)
    | None -> ()
  done;
  check_bool "both op kinds occur" true (!inserts > 50 && !deletes > 20)

let test_adversary_targets_matching () =
  let rng = Rng.create 12 in
  let dg = Dyn_graph.create 6 in
  ignore (Dyn_graph.insert dg 0 1);
  ignore (Dyn_graph.insert dg 2 3);
  ignore (Dyn_graph.insert dg 0 2);
  let mate = function 0 -> 1 | 1 -> 0 | _ -> -1 in
  (match
     Adversary.next_op Adversary.Adaptive_target_matching rng dg
       ~current_mate:mate
   with
  | Some (Adversary.Delete (0, 1)) -> ()
  | _ -> Alcotest.fail "adversary should delete the matched edge");
  (* with no matched edges it inserts instead *)
  let no_mate _ = -1 in
  match
    Adversary.next_op Adversary.Adaptive_target_matching rng dg
      ~current_mate:no_mate
  with
  | Some (Adversary.Insert _) -> ()
  | _ -> Alcotest.fail "adversary should insert when nothing is matched"

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let qcheck_dyn_graph_agrees =
  QCheck.Test.make ~name:"dyn graph agrees with a set-based reference"
    ~count:50
    QCheck.(pair (int_range 2 15) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let dg = Dyn_graph.create n in
      let reference = Hashtbl.create 32 in
      let ok = ref true in
      for _ = 1 to 300 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          let key = (min u v, max u v) in
          if Rng.bool rng then begin
            let expect = not (Hashtbl.mem reference key) in
            if Dyn_graph.insert dg u v <> expect then ok := false;
            Hashtbl.replace reference key ()
          end
          else begin
            let expect = Hashtbl.mem reference key in
            if Dyn_graph.delete dg u v <> expect then ok := false;
            Hashtbl.remove reference key
          end
        end
      done;
      !ok && Dyn_graph.m dg = Hashtbl.length reference)

let qcheck_dyn_matching_always_valid =
  QCheck.Test.make ~name:"maintained matching is always a valid matching"
    ~count:25
    QCheck.(pair (int_range 4 20) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let dm = Dyn_matching.create (Rng.split rng) ~n ~beta:3 ~eps:0.5 in
      let ok = ref true in
      for _ = 1 to 200 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          if Rng.bernoulli rng 0.3 then ignore (Dyn_matching.delete dm u v)
          else ignore (Dyn_matching.insert dm u v);
          let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
          if not (Matching.is_valid g (Dyn_matching.matching dm)) then
            ok := false
        end
      done;
      !ok)

let qcheck_baseline_two_approx =
  QCheck.Test.make ~name:"baseline stays 2-approximate under churn" ~count:25
    QCheck.(pair (int_range 4 16) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let b = Baseline_dynamic.create ~n in
      for _ = 1 to 150 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then
          if Rng.bernoulli rng 0.3 then ignore (Baseline_dynamic.delete b u v)
          else ignore (Baseline_dynamic.insert b u v)
      done;
      let g = Dyn_graph.snapshot (Baseline_dynamic.graph b) in
      let opt = Brute_force.mcm_size g in
      2 * Baseline_dynamic.size b >= opt)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        qcheck_dyn_graph_agrees;
        qcheck_dyn_matching_always_valid;
        qcheck_baseline_two_approx;
      ]
  in
  Alcotest.run "mspar_dynamic"
    [
      ( "dyn-graph",
        [
          Alcotest.test_case "basic" `Quick test_dyn_graph_basic;
          Alcotest.test_case "has_edge range check" `Quick
            test_dyn_graph_out_of_range;
          Alcotest.test_case "vs reference" `Quick test_dyn_graph_vs_reference;
          Alcotest.test_case "sampling" `Quick test_dyn_graph_sampling;
          Alcotest.test_case "non-isolated tracking" `Quick
            test_dyn_graph_non_isolated;
        ] );
      ( "dyn-matching",
        [
          Alcotest.test_case "valid under churn" `Quick
            test_dyn_matching_validity_under_churn;
          Alcotest.test_case "approximation random" `Quick
            test_dyn_matching_approximation_random;
          Alcotest.test_case "adaptive adversary" `Quick
            test_dyn_matching_adaptive_adversary;
          Alcotest.test_case "adaptive adversary 1k soak" `Quick
            test_dyn_matching_adaptive_long_run;
          Alcotest.test_case "work bound" `Quick test_dyn_matching_work_bound;
          Alcotest.test_case "force rebuild" `Quick
            test_dyn_matching_force_rebuild;
        ] );
      ( "dyn-sparsifier",
        [
          Alcotest.test_case "invariants under churn" `Quick
            test_dyn_sparsifier_invariants_under_churn;
          Alcotest.test_case "update work O(delta)" `Quick
            test_dyn_sparsifier_update_work_is_o_delta;
          Alcotest.test_case "snapshot quality" `Quick
            test_dyn_sparsifier_quality_snapshot;
          Alcotest.test_case "deletion cleans marks" `Quick
            test_dyn_sparsifier_deletion_cleans_marks;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "maximal invariant" `Quick
            test_baseline_maximal_invariant;
          Alcotest.test_case "work grows with density" `Quick
            test_baseline_work_grows_with_density;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "random churn" `Quick test_adversary_random_churn;
          Alcotest.test_case "targets matching" `Quick
            test_adversary_targets_matching;
        ] );
      ("properties", qsuite);
    ]
