(* Per-directory configuration for msparlint.

   The configuration is a flat directive file (see tools/lint/msparlint.conf)
   rather than anything structured: one directive per line, [#] comments,
   paths are repo-relative with [/] separators.  [default] mirrors the
   checked-in file so the engine is usable without any file (tests, ad-hoc
   runs). *)

type t = {
  hot_dirs : string list;
      (* MSP002 (polymorphic compare) is enforced only under these prefixes *)
  congest_dirs : string list;
      (* MSP003 (CONGEST fidelity) is enforced under these prefixes ... *)
  congest_exempt : string list;
      (* ... except for these files (the network substrate itself) *)
  congest_forbidden : string list;
      (* identifier paths that count as direct adjacency access *)
  probe_dirs : string list;
      (* MSP014 (uncounted access dominated by charge) is additionally
         enforced under these prefixes: probe-metered query code that
         reads adjacency through uncounted accessors must charge the
         probe counter in the same function *)
  require_mli_dirs : string list;
      (* MSP006: every .ml under these prefixes needs a sibling .mli *)
  allows : (string * string) list;
      (* (code, path-prefix): rule switched off for matching files *)
}

let default =
  {
    hot_dirs = [ "lib/prelude"; "lib/graph"; "lib/core" ];
    congest_dirs = [ "lib/distsim" ];
    congest_exempt = [ "lib/distsim/network.ml" ];
    congest_forbidden =
      [
        "Graph.neighbor";
        "Graph.neighbor_uncounted";
        "Graph.iter_neighbors";
        "Graph.fold_neighbors";
        "Graph.has_edge";
        "Graph.edges";
        "Graph.iter_edges";
        "Graph.neighbors_into_uncounted";
      ];
    probe_dirs = [ "lib/lca" ];
    require_mli_dirs = [ "lib" ];
    allows =
      [
        ("MSP001", "lib/prelude/rng.ml");
        ("MSP009", "lib/prelude/journal.ml");
        ("MSP009", "lib/graph/graph_io.ml");
        ("MSP010", "lib/prelude");
        ("MSP010", "lib/graph/graph.ml");
        ("MSP011", "lib/server");
        ("MSP011", "lib/prelude/journal.ml");
        ("MSP011", "lib/graph/graph_io.ml");
      ];
  }

let empty =
  {
    hot_dirs = [];
    congest_dirs = [];
    congest_exempt = [];
    congest_forbidden = [];
    probe_dirs = [];
    require_mli_dirs = [];
    allows = [];
  }

(* [dir] prefixes match whole path segments: "lib/graph" matches
   "lib/graph/foo.ml" but not "lib/graphics/foo.ml".  An exact file path
   matches itself. *)
let under_prefix ~prefix file =
  String.equal prefix file
  || String.length file > String.length prefix
     && String.starts_with ~prefix file
     && file.[String.length prefix] = '/'

let matches_any prefixes file = List.exists (fun p -> under_prefix ~prefix:p file) prefixes
let in_hot_dir t file = matches_any t.hot_dirs file

let in_congest_scope t file =
  matches_any t.congest_dirs file && not (matches_any t.congest_exempt file)

let in_probe_scope t file = matches_any t.probe_dirs file

let requires_mli t file = matches_any t.require_mli_dirs file

let rule_enabled t ~code ~file =
  not (List.exists (fun (c, p) -> String.equal c code && under_prefix ~prefix:p file) t.allows)

exception Config_error of string

let parse_line cfg lineno line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> String.length w > 0)
  in
  match words with
  | [] -> cfg
  | [ "hot-dir"; d ] -> { cfg with hot_dirs = cfg.hot_dirs @ [ d ] }
  | [ "congest-dir"; d ] -> { cfg with congest_dirs = cfg.congest_dirs @ [ d ] }
  | [ "congest-exempt"; f ] -> { cfg with congest_exempt = cfg.congest_exempt @ [ f ] }
  | [ "congest-forbid"; id ] -> { cfg with congest_forbidden = cfg.congest_forbidden @ [ id ] }
  | [ "probe-dir"; d ] -> { cfg with probe_dirs = cfg.probe_dirs @ [ d ] }
  | [ "require-mli"; d ] -> { cfg with require_mli_dirs = cfg.require_mli_dirs @ [ d ] }
  | [ "allow"; code; path ] -> { cfg with allows = cfg.allows @ [ (code, path) ] }
  | directive :: _ ->
      raise
        (Config_error (Printf.sprintf "line %d: unknown or malformed directive %S" lineno directive))

let of_string s =
  let lines = String.split_on_char '\n' s in
  let cfg, _ =
    List.fold_left (fun (cfg, no) line -> (parse_line cfg no line, no + 1)) (empty, 1) lines
  in
  cfg

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s
