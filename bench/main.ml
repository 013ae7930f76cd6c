(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe               - all experiments
     dune exec bench/main.exe -- e6 e9      - only the named experiments
     dune exec bench/main.exe -- fault_sweep - fault-injection degradation
                                              sweep (drop rate x retries)
     dune exec bench/main.exe -- fault-smoke - one asserted fault cell
                                              (the dune runtest hook)
     dune exec bench/main.exe -- crash_soak  - crash-recover-verify soak of
                                              the durable dynamic pipeline
     dune exec bench/main.exe -- crash-smoke - the same soak at smoke size,
                                              >=200 seeded crash points
                                              (the dune runtest hook)
     dune exec bench/main.exe -- msgr-smoke  - .msgr save / mmap-reopen at
                                              ~1M edges with the O(1)-ish
                                              open gate (make bench-smoke)
     dune exec bench/main.exe -- msgr-smoke-small - the same legs at
                                              runtest size (the dune
                                              runtest hook)
     dune exec bench/main.exe -- serve-faults - socket fault injection:
                                              hostile frames, pipelined
                                              windows, seeded kill -9
                                              crash points
                                              (recovery must match the
                                              uncrashed run bit-for-bit),
                                              SIGTERM drain
     dune exec bench/main.exe -- serve-faults-smoke - one leg per family
                                              (the dune runtest hook)
     dune exec bench/main.exe -- serve-smoke - SIGTERM-mid-load drain
                                              contract only (the dune
                                              runtest hook)
     dune exec bench/main.exe -- serve-replication - hot-standby WAL
                                              shipping: kill -9 failover
                                              with Promote + client
                                              rediscovery, replica crash
                                              catch-up, epoch fencing,
                                              slow-follower lag
     dune exec bench/main.exe -- replication-smoke - failover + fencing
                                              legs at runtest size (the
                                              dune runtest hook)
     dune exec bench/main.exe -- lca-query   - point-query oracle vs the
                                              materialized G_Delta build at
                                              100k vertices: cold O(delta)
                                              probe gate, 100x crossover,
                                              Zipfian warm-replay >=10x
     dune exec bench/main.exe -- lca-smoke   - the same gates (weakened
                                              warm gate) at tiny sizes
                                              (the dune runtest hook)

   Experiment ids correspond to DESIGN.md's experiment index; every table
   regenerates the quantitative content of one claim of the paper. *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --csv DIR: also write each table as <DIR>/<id>.csv *)
  let args =
    match args with
    | "--csv" :: dir :: rest ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Experiments.csv_dir := Some dir;
        rest
    | args -> args
  in
  let wants name =
    (* exact id, or a prefix ending at the id's underscore: "e6" selects
       e6_sequential but not e11_ablations *)
    let matches a =
      a = name
      || (String.length a < String.length name
         && String.sub name 0 (String.length a) = a
         && name.[String.length a] = '_')
    in
    args = [] || List.exists matches args
  in
  (* Every leg, in run order.  [true] marks the default sweep, which runs
     with no arguments and by prefix.  The smoke runs, the size-heavy legs
     and the serve benches (which fork real server processes) must be
     asked for by their exact name. *)
  let legs =
    List.map (fun (name, f) -> (name, true, f)) Experiments.all
    @ [
        ("fault_sweep", true, Fault_sweep.run);
        ("crash_soak", true, Crash_soak.run);
        ("fault-smoke", false, Fault_sweep.smoke);
        ("crash-smoke", false, Crash_soak.smoke);
        ("msgr-smoke", false, Msgr_smoke.run ~full:true);
        ("msgr-smoke-small", false, Msgr_smoke.run ~full:false);
        ("serve-faults", false, Serve_faults.run);
        ("serve-faults-smoke", false, Serve_faults.smoke);
        ("serve-smoke", false, Serve_faults.drain_smoke);
        ("serve-replication", false, fun () -> Serve_replication.run ());
        ("replication-smoke", false, Serve_replication.smoke);
        ("lca-query", false, Lca_query.run ~full:true);
        ("lca-smoke", false, Lca_query.run ~full:false);
      ]
  in
  let ran = ref 0 in
  List.iter
    (fun (name, in_sweep, f) ->
      if (if in_sweep then wants name else List.mem name args) then begin
        incr ran;
        f ()
      end)
    legs;
  if !ran = 0 then begin
    prerr_endline "no experiment matched; available:";
    List.iter (fun (name, _, _) -> Printf.eprintf "  %s\n" name) legs;
    exit 1
  end
