(* mspar - command-line driver for the matching-sparsifier library.

   Subcommands:
     gen       generate a graph family and print its structural parameters
     sparsify  build G_delta and report size / arboricity / approximation
     run       the sequential (1+eps) pipeline (Theorem 3.1)
     dist      the distributed pipeline on the network simulator (Thm 3.2/3.3)
     dynamic   a dynamic scenario with an adaptive adversary (Theorem 3.5)
     serve     long-running matching service over Unix/TCP sockets

   Exit codes (shared with serve): 0 ok, 1 runtime failure, 2 bad CLI
   usage (cmdliner), 3 config error, 4 bind failure, 5 recovery failure. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  let doc = "Random seed (all runs are deterministic given the seed)." in
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg =
  let doc = "Number of vertices (or base-graph vertices for line graphs)." in
  Arg.(value & opt int 300 & info [ "n" ] ~docv:"N" ~doc)

let family_arg =
  let doc =
    "Graph family: complete | clique-minus-edge | two-cliques | line | udg | \
     diversity | cliques | gnp | interval | hub | file (with --input)."
  in
  Arg.(value & opt string "complete" & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)

let input_arg =
  let doc = "Edge-list file to load when --family file is selected." in
  Arg.(value & opt string "" & info [ "i"; "input" ] ~docv:"PATH" ~doc)

let p_arg =
  let doc = "Edge probability for gnp / line-graph base." in
  Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc)

let radius_arg =
  let doc = "Radius for unit-disk graphs." in
  Arg.(value & opt float 0.15 & info [ "radius" ] ~docv:"R" ~doc)

let eps_arg =
  let doc = "Approximation parameter eps in (0,1)." in
  Arg.(value & opt float 0.5 & info [ "eps" ] ~docv:"EPS" ~doc)

let beta_arg =
  let doc =
    "Neighborhood independence bound to use (0 = derive from the family)."
  in
  Arg.(value & opt int 0 & info [ "beta" ] ~docv:"BETA" ~doc)

let multiplier_arg =
  let doc =
    "Multiplier for the Delta formula (the proof uses 20; small values are \
     empirically sufficient, see bench E11)."
  in
  Arg.(value & opt float 1.0 & info [ "multiplier" ] ~docv:"C" ~doc)

(* family name -> graph + known beta bound (0 = unknown, derive) *)
let build_family ?(input = "") ~family ~n ~p ~radius ~seed () =
  let rng = Rng.create seed in
  match family with
  | "complete" -> (Gen.complete n, 1)
  | "clique-minus-edge" ->
      (Gen.clique_minus_edge ~n ~missing:(n - 1, n - 2), 2)
  | "two-cliques" ->
      let half = if n / 2 mod 2 = 0 then (n / 2) + 1 else n / 2 in
      (fst (Gen.two_cliques_bridge ~half:(max 3 half)), 2)
  | "line" -> (Line_graph.random_base rng ~base_n:n ~p, 2)
  | "udg" -> (fst (Unit_disk.random rng ~n ~radius), 5)
  | "diversity" ->
      (Gen.bounded_diversity rng ~n ~cliques:(max 2 (n / 10)) ~memberships:2, 2)
  | "cliques" -> (Gen.disjoint_cliques rng ~n ~k:(max 1 (n / 75)), 1)
  | "gnp" -> (Gen.gnp rng ~n ~p, 0)
  | "interval" ->
      (Geometric.proper_interval rng ~n ~span:(float_of_int n /. 25.0), 2)
  | "hub" -> (fst (Gen.hub_gadget ~pairs:n ~hub_size:(max 1 (n / 10))), 0)
  | "file" ->
      if input = "" then begin
        prerr_endline "mspar: --family file requires --input PATH";
        exit 2
      end;
      (Graph_io.load_exn input, 0)
  | other ->
      Printf.eprintf "mspar: unknown family %S\n" other;
      exit 2

let resolve_beta g ~declared ~family_beta =
  if declared > 0 then declared
  else if family_beta > 0 then family_beta
  else
    (* unknown family bound: compute (or lower-bound) it *)
    max 1 (Beta.value (Beta.compute ~budget:2_000_000 g))

(* ------------------------------------------------------------------ *)
(* gen                                                                *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run family n p radius seed input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    Printf.printf "family=%s n=%d m=%d max-degree=%d\n" family (Graph.n g)
      (Graph.m g) (Graph.max_degree g);
    let beta = Beta.compute ~budget:5_000_000 g in
    Printf.printf "beta: %s%d (family bound: %s)\n"
      (if Beta.is_exact beta then "" else ">=")
      (Beta.value beta)
      (if fam_beta > 0 then string_of_int fam_beta else "n/a");
    Printf.printf "degeneracy=%d density-lower-bound=%d\n"
      (Arboricity.degeneracy g)
      (Arboricity.density_lower_bound g);
    Printf.printf "MCM=%d (exact blossom)\n"
      (Matching.size (Blossom.solve g))
  in
  let term = Term.(const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ input_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a graph family and print its parameters")
    term

(* ------------------------------------------------------------------ *)
(* sparsify                                                           *)
(* ------------------------------------------------------------------ *)

let sparsify_cmd =
  let run family n p radius seed eps beta multiplier input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
    let delta = Delta_param.scaled ~multiplier ~beta ~eps in
    let rng = Rng.create (seed + 1) in
    let s, st = Gdelta.sparsify rng g ~delta in
    Printf.printf "G: n=%d m=%d    G_delta: delta=%d edges=%d (%.1f%%)\n"
      (Graph.n g) (Graph.m g) delta st.Gdelta.edges
      (100.0 *. float_of_int st.Gdelta.edges /. float_of_int (max 1 (Graph.m g)));
    Printf.printf "probes=%d (%.1f%% of 2m)   degeneracy(G_delta)=%d (<= 4*delta=%d)\n"
      st.Gdelta.probes
      (100.0 *. float_of_int st.Gdelta.probes /. float_of_int (max 1 (2 * Graph.m g)))
      (Arboricity.degeneracy s) (4 * delta);
    let opt = Matching.size (Blossom.solve g) in
    let os = Matching.size (Blossom.solve s) in
    Printf.printf "MCM(G)=%d MCM(G_delta)=%d ratio=%.4f (target <= %.2f)\n" opt
      os
      (Properties.approximation_ratio ~mcm_g:opt ~mcm_sparsifier:os)
      (1.0 +. eps)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "sparsify" ~doc:"Build the G_delta sparsifier and report its properties")
    term

(* ------------------------------------------------------------------ *)
(* run (sequential pipeline)                                          *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run family n p radius seed eps beta multiplier input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
    let rng = Rng.create (seed + 1) in
    let r = Pipeline.run ~multiplier rng g ~beta ~eps in
    Printf.printf
      "matching=%d  delta=%d  sparsifier-edges=%d  probes=%d/%d (%.1f%%)\n"
      (Matching.size r.Pipeline.matching)
      r.Pipeline.delta r.Pipeline.sparsifier_edges r.Pipeline.probes_on_input
      (2 * Graph.m g)
      (100.0 *. Pipeline.sublinearity_ratio r);
    Printf.printf "sparsify=%.2fms match=%.2fms\n"
      (Clock.ns_to_ms r.Pipeline.sparsify_ns)
      (Clock.ns_to_ms r.Pipeline.match_ns);
    let opt = Matching.size (Blossom.solve g) in
    Printf.printf "exact MCM=%d  achieved ratio=%.4f\n" opt
      (float_of_int opt
      /. float_of_int (max 1 (Matching.size r.Pipeline.matching)))
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Sequential (1+eps) pipeline: sparsify then match (Theorem 3.1)")
    term

(* ------------------------------------------------------------------ *)
(* dist                                                               *)
(* ------------------------------------------------------------------ *)

let dist_cmd =
  let run family n p radius seed eps beta multiplier drop crash retries
      fault_seed input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
    let open Mspar_distsim in
    if drop > 0.0 || crash > 0 then begin
      (* fault-injection mode: run the self-healing pipeline under the
         plan and compare against the same seed's fault-free run *)
      let frng = Rng.create fault_seed in
      let crashed =
        if crash = 0 then []
        else
          Rng.sample_distinct frng ~k:crash ~n:(Graph.n g) |> Array.to_list
      in
      let faults = Faults.plan ~drop ~crashed frng in
      let rr =
        Pipeline_dist.run_reliable ~multiplier ~faults ~retries
          (Rng.create (seed + 1)) g ~beta ~eps
      in
      let fault_free =
        Pipeline_dist.run_reliable ~multiplier ~retries
          (Rng.create (seed + 1)) g ~beta ~eps
      in
      let r = rr.Pipeline_dist.base in
      Printf.printf
        "faulty:     matching=%d rounds=%d messages=%d bits=%d (drop=%.2f \
         crash=%d retries=%d fault-seed=%d)\n"
        (Matching.size r.Pipeline_dist.matching)
        r.Pipeline_dist.rounds r.Pipeline_dist.messages r.Pipeline_dist.bits
        drop crash retries fault_seed;
      Printf.printf
        "            dropped=%d duplicated=%d delayed=%d mark-attempts=%d \
         unacked=%d\n"
        r.Pipeline_dist.faults.Faults.dropped
        r.Pipeline_dist.faults.Faults.duplicated
        r.Pipeline_dist.faults.Faults.delayed rr.Pipeline_dist.attempts
        rr.Pipeline_dist.unacked;
      let ff = fault_free.Pipeline_dist.base in
      Printf.printf "fault-free: matching=%d rounds=%d messages=%d\n"
        (Matching.size ff.Pipeline_dist.matching)
        ff.Pipeline_dist.rounds ff.Pipeline_dist.messages;
      Printf.printf "recovery ratio: %.4f   round overhead: %+d\n"
        (float_of_int (Matching.size r.Pipeline_dist.matching)
        /. float_of_int (max 1 (Matching.size ff.Pipeline_dist.matching)))
        (r.Pipeline_dist.rounds - ff.Pipeline_dist.rounds)
    end
    else begin
      let r =
        Pipeline_dist.run ~multiplier (Rng.create (seed + 1)) g ~beta ~eps
      in
      let _, base =
        Matching_dist.full_graph_baseline (Rng.create (seed + 2)) g
      in
      Printf.printf "pipeline: matching=%d rounds=%d messages=%d bits=%d\n"
        (Matching.size r.Pipeline_dist.matching)
        r.Pipeline_dist.rounds r.Pipeline_dist.messages r.Pipeline_dist.bits;
      Printf.printf "baseline: rounds=%d messages=%d (m=%d)\n"
        base.Matching_dist.rounds base.Matching_dist.messages (Graph.m g);
      Printf.printf "message saving: %.2fx\n"
        (float_of_int base.Matching_dist.messages
        /. float_of_int (max 1 r.Pipeline_dist.messages))
    end
  in
  let drop_arg =
    let doc = "Per-message drop probability in [0,1) (0 = fault-free)." in
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc)
  in
  let crash_arg =
    let doc =
      "Number of crashed processors (chosen deterministically from \
       --fault-seed)."
    in
    Arg.(value & opt int 0 & info [ "crash" ] ~docv:"K" ~doc)
  in
  let retries_arg =
    let doc = "Retry budget for the self-healing marking stage." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"R" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed for the fault plan's private randomness." in
    Arg.(value & opt int 57 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ drop_arg $ crash_arg $ retries_arg
      $ fault_seed_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Distributed pipeline on the simulator (Theorems 3.2/3.3), \
          optionally under fault injection (--drop/--crash)")
    term

(* ------------------------------------------------------------------ *)
(* dynamic                                                            *)
(* ------------------------------------------------------------------ *)

let dynamic_cmd =
  let run family n p radius seed eps beta multiplier steps journal recover
      input =
    let open Mspar_dynamic in
    let report_matching dm =
      let s = Dyn_matching.stats dm in
      let final = Dyn_graph.snapshot (Dyn_matching.graph dm) in
      let opt = Matching.size (Blossom.solve final) in
      Printf.printf
        "updates=%d rebuilds=%d worst-spread-work=%d/update total-work=%d\n"
        s.Dyn_matching.updates s.Dyn_matching.rebuilds
        s.Dyn_matching.max_spread_work s.Dyn_matching.total_work;
      Printf.printf "final matching=%d optimum=%d ratio=%.4f\n"
        (Dyn_matching.size dm) opt
        (float_of_int opt /. float_of_int (max 1 (Dyn_matching.size dm)))
    in
    (* the churn loop, parameterized over how ops are applied so the
       plain and journaled paths share one adversary stream *)
    let churn_loop ~graph_of ~mate_of ~ins ~del =
      let churn = Rng.create (seed + 3) in
      for _ = 1 to steps do
        match
          Adversary.next_op Adversary.Adaptive_target_matching churn (graph_of ())
            ~current_mate:(mate_of ())
        with
        | Some (Adversary.Delete (u, v)) -> del u v
        | Some (Adversary.Insert (u, v)) -> ins u v
        | None -> ()
      done
    in
    match journal with
    | None ->
        let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
        let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
        let dm =
          Dyn_matching.create ~multiplier (Rng.create (seed + 1)) ~n:(Graph.n g)
            ~beta ~eps
        in
        (* stream the family's edges in, matchable-first *)
        let planted = Greedy.maximal g in
        Matching.iter_edges planted (fun u v ->
            ignore (Dyn_matching.insert dm u v));
        let rest = Graph.edges g in
        Rng.shuffle_in_place (Rng.create (seed + 2)) rest;
        Array.iter (fun (u, v) -> ignore (Dyn_matching.insert dm u v)) rest;
        (* adaptive churn *)
        churn_loop
          ~graph_of:(fun () -> Dyn_matching.graph dm)
          ~mate_of:(fun () v -> Matching.mate (Dyn_matching.matching dm) v)
          ~ins:(fun u v -> ignore (Dyn_matching.insert dm u v))
          ~del:(fun u v -> ignore (Dyn_matching.delete dm u v));
        report_matching dm
    | Some dir ->
        let d =
          if recover then (
            match Durable.recover dir with
            | Error msg ->
                Printf.eprintf "recover failed: %s\n" msg;
                (* same code as serve --recover: exit-code hygiene *)
                exit Mspar_server.Server.exit_recovery_failure
            | Ok d ->
                let s = Durable.stats d in
                Printf.printf "recovered: ops=%d epoch=%s replayed=%d\n"
                  s.Durable.ops
                  (match s.Durable.recovered_epoch with
                  | Some e -> string_of_int e
                  | None -> "none")
                  s.Durable.replayed;
                d)
          else begin
            let g, fam_beta =
              build_family ~input ~family ~n ~p ~radius ~seed ()
            in
            let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
            let delta = Delta_param.scaled ~multiplier ~beta ~eps in
            let d =
              Durable.create ~dir
                { Durable.n = Graph.n g; delta; beta; eps; multiplier; seed }
            in
            let planted = Greedy.maximal g in
            Matching.iter_edges planted (fun u v ->
                ignore (Durable.insert d u v));
            let rest = Graph.edges g in
            Rng.shuffle_in_place (Rng.create (seed + 2)) rest;
            Array.iter (fun (u, v) -> ignore (Durable.insert d u v)) rest;
            d
          end
        in
        churn_loop
          ~graph_of:(fun () -> Dyn_matching.graph (Durable.matching d))
          ~mate_of:(fun () v ->
            Matching.mate (Dyn_matching.matching (Durable.matching d)) v)
          ~ins:(fun u v -> ignore (Durable.insert d u v))
          ~del:(fun u v -> ignore (Durable.delete d u v));
        let s = Durable.stats d in
        Printf.printf
          "journal: ops=%d snapshots=%d audits=%d audit-failures=%d\n"
          s.Durable.ops s.Durable.snapshots s.Durable.audits
          s.Durable.audit_failures;
        report_matching (Durable.matching d);
        Durable.close d
  in
  let steps_arg =
    Arg.(value & opt int 1000 & info [ "steps" ] ~docv:"STEPS" ~doc:"Churn steps.")
  in
  let journal_arg =
    let doc =
      "Run crash-safe: journal every update to $(docv)/journal.wal, and \
       every n updates audit the state and write a snapshot blob there \
       (the newest two are kept), so a crash replays at most n updates."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)
  in
  let recover_arg =
    let doc =
      "Recover from an existing journal in --journal's directory instead of \
       starting fresh, then run --steps more churn on the recovered state."
    in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ steps_arg $ journal_arg $ recover_arg
      $ input_arg)
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Dynamic maintenance under an adaptive adversary (Theorem 3.5), \
          optionally crash-safe behind a write-ahead journal \
          (--journal/--recover)")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run socket port host journal recover replica_of n beta eps multiplier
      seed max_conns idle_timeout frame_timeout max_frame crash_after_ops =
    let open Mspar_dynamic in
    let open Mspar_server in
    let fail_config msg =
      Printf.eprintf "mspar serve: %s\n" msg;
      exit Server.exit_config_error
    in
    let addr =
      match (socket, port) with
      | Some path, None -> Wire.Unix_path path
      | None, Some p -> Wire.Tcp (host, p)
      | Some _, Some _ ->
          fail_config "--socket and --port are mutually exclusive"
      | None, None -> fail_config "one of --socket or --port is required"
    in
    (match journal with
    | "" -> fail_config "--journal DIR is required"
    | _ -> ());
    let replica_of =
      match replica_of with
      | None -> None
      | Some s -> (
          match Wire.addr_of_string s with
          | Ok a -> Some a
          | Error msg -> fail_config ("--replica-of: " ^ msg))
    in
    (* --recover reads n/beta/eps back from the journal's Meta record (and
       a replica takes its config from the primary), so the fresh-create
       parameters are only validated on a fresh primary start *)
    if (not recover) && Option.is_none replica_of then begin
      if n < 1 then fail_config "--n must be >= 1";
      if beta < 1 then
        fail_config
          "--beta must be >= 1 (serve has no graph family to derive it)";
      if not (eps > 0.0 && eps < 1.0) then fail_config "--eps must be in (0,1)"
    end;
    if max_conns < 1 || max_frame < 16 then
      fail_config "server limits must be positive (and --max-frame >= 16)";
    let recover_or_die () =
      match Durable.recover journal with
      | Error msg ->
          Printf.eprintf "mspar serve: recovery failed: %s\n" msg;
          exit Server.exit_recovery_failure
      | Ok d ->
          let s = Durable.stats d in
          Printf.printf "recovered: ops=%d epoch=%s replayed=%d\n%!"
            s.Durable.ops
            (match s.Durable.recovered_epoch with
            | Some e -> string_of_int e
            | None -> "none")
            s.Durable.replayed;
          d
    in
    let durable =
      match replica_of with
      | Some upstream -> (
          (* replica: resume the local tail when the dir already holds a
             journal, else bootstrap a fresh one from the primary *)
          match Durable.recover journal with
          | Ok d -> d
          | Error "no journal found" -> (
              match Server.bootstrap_replica ~upstream ~dir:journal with
              | Error msg ->
                  Printf.eprintf "mspar serve: %s\n" msg;
                  exit Server.exit_recovery_failure
              | Ok () ->
                  Printf.printf "bootstrapped replica from %s\n%!"
                    (Fmt.str "%a" Wire.pp_addr upstream);
                  recover_or_die ())
          | Error msg ->
              Printf.eprintf "mspar serve: recovery failed: %s\n" msg;
              exit Server.exit_recovery_failure)
      | None ->
          if recover then recover_or_die ()
          else begin
            let delta = Delta_param.scaled ~multiplier ~beta ~eps in
            match
              Durable.create ~dir:journal
                { Durable.n; delta; beta; eps; multiplier; seed }
            with
            | d -> d
            | exception Invalid_argument msg -> fail_config msg
          end
    in
    let cfg =
      {
        (Server.default_config addr) with
        Server.max_conns;
        max_frame;
        idle_timeout;
        frame_timeout;
        seed;
        crash_after_ops;
      }
    in
    match Server.bind_listen addr with
    | Error msg ->
        Durable.close durable;
        Printf.eprintf "mspar serve: %s\n" msg;
        exit Server.exit_bind_failure
    | Ok listen -> (
        Fmt.pr "mspar serve: listening on %a (journal %s%s)\n%!" Wire.pp_addr
          addr journal
          (match replica_of with
          | Some a -> Fmt.str ", replica of %a" Wire.pp_addr a
          | None -> "");
        match Server.run ?replica_of cfg ~listen ~durable with
        | Ok () ->
            let s = Durable.stats durable in
            Durable.close durable;
            Printf.printf "drained: ops=%d snapshots=%d\n%!" s.Durable.ops
              s.Durable.snapshots
        | Error msg ->
            Durable.close durable;
            Printf.eprintf "mspar serve: %s\n" msg;
            exit 1)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on TCP port $(docv) (see --host)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Bind address for --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let journal_arg =
    let doc =
      "Journal directory (WAL + snapshot blobs); required.  Every ack follows \
       an fsync, and every n updates a primary audits its state and writes \
       a snapshot blob (the newest two are kept), so a crash replays at \
       most n updates."
    in
    Arg.(value & opt string "" & info [ "journal" ] ~docv:"DIR" ~doc)
  in
  let recover_arg =
    let doc = "Recover from the existing journal instead of starting fresh." in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let replica_of_arg =
    let doc =
      "Run as a hot-standby replica of the primary at $(docv) \
       (unix:PATH, tcp:HOST:PORT, or HOST:PORT): bootstrap or resume the \
       local journal, tail the primary's WAL, serve read-only queries, \
       redirect updates.  A Promote request turns the replica into the \
       primary."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "replica-of" ] ~docv:"ADDR" ~doc)
  in
  let max_conns_arg =
    Arg.(
      value & opt int 128
      & info [ "max-conns" ] ~docv:"C" ~doc:"Maximum concurrent connections.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:"Drop connections silent for this long.")
  in
  let frame_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "frame-timeout" ] ~docv:"SECS"
          ~doc:"Drop connections dribbling one frame for this long (slowloris).")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Mspar_prelude.Codec.Frames.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest frame body accepted on the wire.")
  in
  let crash_after_ops_arg =
    let doc =
      "Fault-injection hook: _exit(137) after the Nth applied update \
       (simulated kill -9; used by the crash suites)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after-ops" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ journal_arg $ recover_arg
      $ replica_of_arg
      $ n_arg $ beta_arg $ eps_arg $ multiplier_arg $ seed_arg $ max_conns_arg
      $ idle_timeout_arg $ frame_timeout_arg $ max_frame_arg
      $ crash_after_ops_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running matching service over Unix/TCP sockets: durable \
          updates with at-most-once semantics, point queries, backpressure, \
          graceful drain on SIGTERM")
    term

(* ------------------------------------------------------------------ *)
(* promote                                                            *)
(* ------------------------------------------------------------------ *)

(* one Promote frame to a running replica: bumps its journaled epoch
   past the upstream's and starts fencing the old primary (DESIGN.md
   §13).  Idempotent against a server that is already primary. *)
let promote_cmd =
  let run addr =
    let open Mspar_server in
    let fail msg =
      Printf.eprintf "mspar promote: %s\n" msg;
      exit 1
    in
    let addr =
      match Wire.addr_of_string addr with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "mspar promote: %s\n" msg;
          exit 2
    in
    let c =
      match Client.connect_retry addr with Ok c -> c | Error m -> fail m
    in
    (match Client.request c Wire.Promote with
    | Ok Wire.Ok -> ()
    | Ok (Wire.Error msg) -> fail msg
    | Ok _ -> fail "unexpected response to Promote"
    | Error msg -> fail msg);
    (match Client.request c Wire.Role with
    | Ok (Wire.Role_reply { primary; epoch; offset }) ->
        Printf.printf "primary=%b epoch=%d durable-offset=%d\n" primary epoch
          offset
    | Ok _ | Error _ -> print_endline "promoted");
    Client.close c
  in
  let addr_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Replica address: unix:PATH, tcp:HOST:PORT, HOST:PORT, or a \
             bare socket path.")
  in
  let term = Term.(const run $ addr_arg) in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a running replica to primary (epoch-fenced failover): \
          send one Promote frame and print the resulting role")
    term

(* ------------------------------------------------------------------ *)
(* stream                                                             *)
(* ------------------------------------------------------------------ *)

let stream_cmd =
  let run family n p radius seed eps beta multiplier input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
    let delta = Delta_param.scaled ~multiplier ~beta ~eps in
    let rng = Rng.create (seed + 1) in
    let edges = Graph.edges g in
    Rng.shuffle_in_place rng edges;
    let s, `Stored peak, `Stream_len len =
      Mspar_stream.Stream_sparsifier.run rng ~n:(Graph.n g) ~delta edges
    in
    Printf.printf "stream: %d edges, one pass; peak memory %d edges (%.1f%% of stream, cap n*delta=%d)\n"
      len peak
      (100.0 *. float_of_int peak /. float_of_int (max 1 len))
      (Graph.n g * delta);
    let opt = Matching.size (Blossom.solve g) in
    let os = Matching.size (Blossom.solve s) in
    Printf.printf "MCM(G)=%d MCM(streamed G_delta)=%d ratio=%.4f (target <= %.2f)\n"
      opt os
      (Properties.approximation_ratio ~mcm_g:opt ~mcm_sparsifier:os)
      (1.0 +. eps)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"One-pass semi-streaming G_delta via reservoir sampling")
    term

(* ------------------------------------------------------------------ *)
(* mpc                                                                *)
(* ------------------------------------------------------------------ *)

let mpc_cmd =
  let run family n p radius seed eps beta multiplier machines input =
    let g, fam_beta = build_family ~input ~family ~n ~p ~radius ~seed () in
    let beta = resolve_beta g ~declared:beta ~family_beta:fam_beta in
    let cfg = { Mspar_mpc.Mpc.machines; capacity = max_int } in
    let r =
      Mspar_mpc.Mpc_matching.run ~multiplier (Rng.create (seed + 1)) cfg g
        ~beta ~eps
    in
    let base = Mspar_mpc.Mpc_matching.baseline_gather cfg g in
    Printf.printf
      "mpc: %d machines, %d rounds, max per-machine load %d words (baseline gather: %d)\n"
      machines r.Mspar_mpc.Mpc_matching.rounds r.Mspar_mpc.Mpc_matching.max_load
      base;
    let opt = Matching.size (Blossom.solve g) in
    Printf.printf "matching=%d optimum=%d ratio=%.4f\n"
      (Matching.size r.Mspar_mpc.Mpc_matching.matching)
      opt
      (float_of_int opt
      /. float_of_int (max 1 (Matching.size r.Mspar_mpc.Mpc_matching.matching)))
  in
  let machines_arg =
    Arg.(
      value & opt int 16
      & info [ "machines" ] ~docv:"M" ~doc:"Number of MPC machines.")
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ radius_arg $ seed_arg $ eps_arg
      $ beta_arg $ multiplier_arg $ machines_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "mpc" ~doc:"Two-round MPC matching via the sparsifier")
    term

let () =
  let info =
    Cmd.info "mspar" ~version:"1.0.0"
      ~doc:"Matching sparsifiers for graphs of bounded neighborhood independence"
  in
  (* term_err: cmdliner's default CLI-error code is 124; the documented
     contract (shared with serve's 3/4/5) uses 2 *)
  exit
    (Cmd.eval ~term_err:2
       (Cmd.group info
          [
            gen_cmd; sparsify_cmd; run_cmd; dist_cmd; dynamic_cmd; serve_cmd;
            promote_cmd; stream_cmd; mpc_cmd;
          ]))
