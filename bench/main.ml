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
  let ran = ref 0 in
  List.iter
    (fun (name, f) ->
      if wants name then begin
        incr ran;
        f ()
      end)
    Experiments.all;
  if wants "fault_sweep" then begin
    incr ran;
    Fault_sweep.run ()
  end;
  if wants "crash_soak" then begin
    incr ran;
    Crash_soak.run ()
  end;
  (* the smoke runs and the size-heavy legs must be asked for by name —
     they are not part of the default sweep *)
  let explicit name = List.mem name args in
  if explicit "fault-smoke" then begin
    incr ran;
    Fault_sweep.smoke ()
  end;
  if explicit "crash-smoke" then begin
    incr ran;
    Crash_soak.smoke ()
  end;
  if explicit "msgr-smoke" then begin
    incr ran;
    Msgr_smoke.run ~full:true ()
  end;
  if explicit "msgr-smoke-small" then begin
    incr ran;
    Msgr_smoke.run ~full:false ()
  end;
  (* the serve benches fork real server processes, so they also must be
     asked for by name and never join the default sweep *)
  if explicit "serve-faults" then begin
    incr ran;
    Serve_faults.run ()
  end;
  if explicit "serve-faults-smoke" then begin
    incr ran;
    Serve_faults.smoke ()
  end;
  if explicit "serve-smoke" then begin
    incr ran;
    Serve_faults.drain_smoke ()
  end;
  if explicit "serve-replication" then begin
    incr ran;
    Serve_replication.run ()
  end;
  if explicit "replication-smoke" then begin
    incr ran;
    Serve_replication.smoke ()
  end;
  if explicit "lca-query" then begin
    incr ran;
    Lca_query.run ~full:true ()
  end;
  if explicit "lca-smoke" then begin
    incr ran;
    Lca_query.run ~full:false ()
  end;
  if !ran = 0 then begin
    prerr_endline "no experiment matched; available:";
    List.iter (fun (name, _) -> Printf.eprintf "  %s\n" name) Experiments.all;
    prerr_endline "  fault_sweep";
    prerr_endline "  crash_soak";
    prerr_endline "  fault-smoke";
    prerr_endline "  crash-smoke";
    prerr_endline "  msgr-smoke";
    prerr_endline "  msgr-smoke-small";
    prerr_endline "  serve-faults";
    prerr_endline "  serve-faults-smoke";
    prerr_endline "  serve-smoke";
    prerr_endline "  serve-replication";
    prerr_endline "  replication-smoke";
    prerr_endline "  lca-query";
    prerr_endline "  lca-smoke";
    exit 1
  end
