(* Where each msparlint rule applies.

   This module is the one place that decides it: the scopes below are
   compiled in, and the binary reads no configuration.  Paths are
   repo-relative with [/] separators. *)

(* MSP002.  Hot paths: the O(n·Δ) sequential bound dies on polymorphic
   compare (the packed-CSR regression class). *)
let hot_dirs = [ "lib/prelude"; "lib/graph"; "lib/core"; "lib/lca" ]

(* MSP003.  CONGEST protocols may only learn about remote vertices through
   messages (Thm 3.2/3.3 round/bandwidth accounting).  network.ml is the
   substrate that implements the message delivery, so it reads adjacency
   freely. *)
let congest_dirs = [ "lib/distsim" ]
let congest_exempt = [ "lib/distsim/network.ml" ]

let congest_forbidden =
  [
    "Graph.neighbor";
    "Graph.neighbor_uncounted";
    "Graph.iter_neighbors";
    "Graph.fold_neighbors";
    "Graph.has_edge";
    "Graph.edges";
    "Graph.iter_edges";
    "Graph.neighbors_into_uncounted";
  ]

(* MSP014 beyond the CONGEST dirs.  The LCA oracle's O(Δ)-probes-per-query
   claim is only as good as its probe accounting: here every function that
   reads adjacency through an uncounted accessor must be dominated by a
   Graph.add_probes charge. *)
let probe_dirs = [ "lib/lca" ]

(* MSP006.  Library modules ship interfaces. *)
let require_mli_dirs = [ "lib" ]

(* (code, path prefix): the rule is switched off for matching files. *)
let allows =
  [
    (* the one blessed home of raw randomness: the seeded generator itself *)
    ("MSP001", "lib/prelude/rng.ml");
    (* raw file I/O: the durability layer owns framing/CRC/fsync policy,
       and Graph_io owns edge-list text parsing *)
    ("MSP009", "lib/prelude/journal.ml");
    ("MSP009", "lib/graph/graph_io.ml");
    (* raw Bigarray unsafe access: the Bigvec wrapper itself, and the CSR
       core whose every unsafe index is derived from a validated offsets
       lane.  Everywhere else an out-of-bounds Bigarray index is a silent
       wild read — go through Bigvec. *)
    ("MSP010", "lib/prelude");
    ("MSP010", "lib/graph/graph.ml");
    (* raw Unix socket / fd I/O: the serve reactor and its client own the
       frame + CRC + backpressure discipline, the journal owns its fd
       writes, and Graph_io its mmap reads *)
    ("MSP011", "lib/server");
    ("MSP011", "lib/prelude/journal.ml");
    ("MSP011", "lib/graph/graph_io.ml");
  ]

(* [dir] prefixes match whole path segments: "lib/graph" matches
   "lib/graph/foo.ml" but not "lib/graphics/foo.ml".  An exact file path
   matches itself. *)
let under_prefix ~prefix file =
  String.equal prefix file
  || String.length file > String.length prefix
     && String.starts_with ~prefix file
     && file.[String.length prefix] = '/'

let matches_any prefixes file = List.exists (fun p -> under_prefix ~prefix:p file) prefixes
let in_hot_dir file = matches_any hot_dirs file

let in_congest_scope file =
  matches_any congest_dirs file && not (matches_any congest_exempt file)

let in_probe_scope file = matches_any probe_dirs file

let requires_mli file = matches_any require_mli_dirs file

let rule_enabled ~code ~file =
  not (List.exists (fun (c, p) -> String.equal c code && under_prefix ~prefix:p file) allows)
