(* [@lint.allow] suppression, and the fixture entry point.

   Suppression spans: an attribute [[@lint.allow "MSP002"]] (payload: rule
   codes separated by spaces or commas, ["*"] for all) attached to an
   expression or (as [[@@lint.allow]]) to a value binding suppresses
   matching findings within that node's character span.  A floating
   [[@@@lint.allow "..."]] suppresses for the whole file.  The spans are
   read from the same Typedtree the rules walked: the compiler keeps the
   attributes on typed nodes (on [exp_extra] for a constraint). *)

open Typedtree

type allow_span = { codes : string list; start_c : int; end_c : int }

let span_matches span (f : Lint_types.finding) =
  f.cnum >= span.start_c && f.cnum < span.end_c
  && List.exists (fun c -> String.equal c "*" || String.equal c f.code) span.codes

let codes_of_payload : Parsetree.payload -> string list = function
  | PStr items ->
      List.concat_map
        (fun (si : Parsetree.structure_item) ->
          match si.pstr_desc with
          | Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _) ->
              String.split_on_char ' ' s
              |> List.concat_map (String.split_on_char ',')
              |> List.filter (fun w -> String.length w > 0)
          | _ -> [])
        items
  | _ -> []

let allow_attr_codes attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "lint.allow" -> codes_of_payload a.attr_payload
      | _ -> [])
    attrs

let allow_spans str =
  let spans = ref [] in
  let push attrs (loc : Location.t) =
    match allow_attr_codes attrs with
    | [] -> ()
    | codes ->
        spans := { codes; start_c = loc.loc_start.pos_cnum; end_c = loc.loc_end.pos_cnum } :: !spans
  in
  let expr it e =
    push e.exp_attributes e.exp_loc;
    List.iter (fun (_, loc, attrs) -> push attrs loc) e.exp_extra;
    Tast_iterator.default_iterator.expr it e
  in
  let value_binding it vb =
    push vb.vb_attributes vb.vb_loc;
    Tast_iterator.default_iterator.value_binding it vb
  in
  let structure_item it si =
    (match si.str_desc with
    | Tstr_attribute a -> (
        (* floating [@@@lint.allow]: file-wide from the top *)
        match allow_attr_codes [ a ] with
        | [] -> ()
        | codes -> spans := { codes; start_c = 0; end_c = max_int } :: !spans)
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it si
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding; structure_item } in
  it.structure it str;
  !spans

let suppress units findings =
  let spans = Hashtbl.create 16 in
  List.iter
    (fun (u : Lint_typed.t) -> Hashtbl.replace spans u.file (lazy (allow_spans u.str)))
    units;
  List.filter
    (fun (f : Lint_types.finding) ->
      match Hashtbl.find_opt spans f.file with
      | None -> true
      | Some s -> not (List.exists (fun span -> span_matches span f) (Lazy.force s)))
    findings

let lint_impl ~file ~source ~mli =
  match Lint_typed.typecheck_impl ~file source with
  | Error message -> [ { Lint_types.file; line = 1; col = 0; cnum = 0; code = "MSP000"; message } ]
  | Ok u -> List.sort Lint_types.compare_finding (suppress [ u ] (Lint_rules.lint_unit ~mli u))
