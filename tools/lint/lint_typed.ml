type t = {
  file : string;
  modname : string;
  str : Typedtree.structure;
}

(* ------------------------------------------------------------------ *)
(* path normalisation                                                 *)
(* ------------------------------------------------------------------ *)

(* Dune mangles modules of a wrapped library as [Lib__Module]; drop
   everything up to the last "__" so call-graph keys line up between the
   real tree ([Mspar_prelude__Pool]) and fixtures ([module Pool = ...]). *)
let demangle s =
  let n = String.length s in
  let rec last_mangle i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then last_mangle (i + 1) (i + 2)
    else last_mangle (i + 1) best
  in
  let b = last_mangle 0 0 in
  if b = 0 || b >= n then s else String.sub s b (n - b)

(* Structural, not a split of [Path.name]: an operator such as [Stdlib./.]
   has a dot in its own name. *)
let norm_path p =
  let last = function
    | Path.Pident id -> demangle (Ident.name id)
    | Pdot (_, s) -> demangle s
    | p -> Path.name p
  in
  match p with Path.Pdot (m, x) -> last m ^ "." ^ x | p -> last p

(* ------------------------------------------------------------------ *)
(* cmt discovery                                                      *)
(* ------------------------------------------------------------------ *)

let trim_root r =
  let r = if String.length r > 2 && String.sub r 0 2 = "./" then String.sub r 2 (String.length r - 2) else r in
  if r <> "/" && String.length r > 1 && r.[String.length r - 1] = '/' then
    String.sub r 0 (String.length r - 1)
  else r

let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then
            (* descend into dune's .objs/.eobjs dot-directories, but never
               into a nested build tree *)
            if entry = "_build" then acc else walk_cmts path acc
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

let modname_of_cmt (cmt : Cmt_format.cmt_infos) = demangle cmt.cmt_modname

let load_units ~roots =
  let roots = List.map trim_root roots in
  let dirs =
    List.concat_map
      (fun r ->
        (* a file root is looked up in its directory's .objs *)
        let r = if Sys.file_exists r && not (Sys.is_directory r) then Filename.dirname r else r in
        List.filter
          (fun d -> Sys.file_exists d && Sys.is_directory d)
          [ r; Filename.concat "_build/default" r ])
      roots
  in
  let cmts = List.sort compare (List.fold_left (fun acc d -> walk_cmts d acc) [] dirs) in
  let seen = Hashtbl.create 64 in
  let units =
    List.filter_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | exception _ -> None
        | cmt -> (
            match (cmt.cmt_annots, cmt.cmt_sourcefile) with
            | Implementation str, Some src
              when Filename.check_suffix src ".ml"
                   && List.exists (fun prefix -> Lint_config.under_prefix ~prefix src) roots
                   && not (Hashtbl.mem seen src) ->
                Hashtbl.replace seen src ();
                Some { file = src; modname = modname_of_cmt cmt; str }
            | _ -> None))
      cmts
  in
  let covered prefix = List.exists (fun u -> Lint_config.under_prefix ~prefix u.file) units in
  match List.find_opt (fun r -> not (covered r)) roots with
  | Some root -> Error root
  | None -> Ok (List.sort (fun a b -> compare a.file b.file) units)

(* ------------------------------------------------------------------ *)
(* fixture type-checking                                              *)
(* ------------------------------------------------------------------ *)

(* Fixtures type-check against the standard library, [unix], and the
   interfaces of the two libraries whose names the rules match most, both
   opened, so a fixture says [Rng.int] or [Graph.iter_neighbors] exactly as
   library code does.  Their .cmi files are the ones dune built, found from
   the working directory: the repo root, or anywhere under _build/default
   (where dune runs the tests).  Without them every fixture fails to
   type-check with "Unbound module", never silently. *)
let fixture_libs =
  [
    ("Mspar_prelude", "lib/prelude/.mspar_prelude.objs/byte");
    ("Mspar_graph", "lib/graph/.mspar_graph.objs/byte");
  ]

let rec build_root dir =
  let has root =
    List.for_all (fun (_, d) -> Sys.file_exists (Filename.concat root d)) fixture_libs
  in
  let in_build = Filename.concat dir "_build/default" in
  if has dir then Some dir
  else if has in_build then Some in_build
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else build_root parent

let fixture_env =
  lazy
    (ignore (Warnings.parse_options false "-a");
     let lib_dirs =
       match build_root (Sys.getcwd ()) with
       | Some root -> List.map (fun (_, d) -> Filename.concat root d) fixture_libs
       | None -> []
     in
     Clflags.include_dirs := (Filename.concat Config.standard_library "unix" :: lib_dirs);
     (* kept reversed, as the compiler's own -open flag parsing does *)
     Clflags.open_modules := List.rev_map fst fixture_libs;
     Compmisc.init_path ();
     Compmisc.initial_env ())

let modname_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let describe_exn e =
  match Location.error_of_exn e with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | _ -> Printexc.to_string e

let typecheck_impl ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match
    let pstr = Parse.implementation lexbuf in
    Typemod.type_structure (Lazy.force fixture_env) pstr
  with
  | str, _sig, _names, _shape, _env -> Ok { file; modname = modname_of_file file; str }
  | exception e -> Error (describe_exn e)
