(* Every per-layer metric a traced run reports, in one place and one
   order.  A workload computes the layers it exercises; the rest read 0
   there — a layer the workload bypasses does no work in it. *)

let all =
  [
    ("graph_io.open_ms", "ms");
    ("gdelta.mark_ms", "ms");
    ("gdelta.marks", "count");
    ("gdelta.probe_ratio", "ratio");
    ("graph.csr_build_ms", "ms");
    ("graph.sparsifier_edges", "count");
    ("greedy.maximal_ms", "ms");
    ("blossom.augment_ms", "ms");
    ("blossom.free_roots", "count");
    ("blossom.augmentations", "count");
    ("blossom.augment_yield", "ratio");
    ("pipeline.residual_ms", "ms");
    ("wire.decode_us", "us");
    ("wire.encode_us", "us");
    ("durable.apply_us", "us");
    ("durable.sync_us", "us");
    ("durable.wal_bytes_per_update", "bytes/update");
    ("dyn_matching.rebuilds_per_kop", "1/kop");
    ("dyn_matching.rebuild_ms", "ms");
    ("dyn_matching.rebuild_share", "ratio");
    ("dyn_graph.has_edge_us", "us");
    ("oracle.in_gdelta_us", "us");
    ("oracle.is_matched_us", "us");
    ("oracle.probes_per_query", "probes/query");
    ("oracle.memo_hit_ratio", "ratio");
    ("oracle.invalidate_us", "us");
    ("oracle.evicted_per_update", "entries/update");
    ("server.cpu_us_per_op", "us");
    ("server.loop_us_per_op", "us");
    ("server.busy_rejections", "count");
    ("loadgen.cpu_share", "ratio");
    ("loadgen.wait_share", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let emit rep ~samples values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k all) then failwith ("unknown per-layer metric " ^ k))
    values;
  List.iter
    (fun (name, unit_) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      Report.add ~gate:true rep ~name ~unit_ ~samples v)
    all
