(** dbgcheck: the one command-line front end of the static checkers.

    Usage:
      dbgcheck [options] [file.c | file.ps ...]
        -json          machine-readable output (one JSON array)
        -ignore K      drop findings of kind K, a kind of any of the three
                       checkers (repeatable; their kind names are disjoint)
        -target NAME   build for one architecture (default: all four)
        -examples      build and check the built-in example programs
        -bpcverify     report the condition-bytecode verifier's verdict
                       on the seeded corpus (a golden test pins it) and
                       do nothing else

    A [.ps] file is linted by pslint against the debugger's names.  Any
    other file is C: it is compiled and linked per target, then checked by
    dbgcheck's families, the IR dataflow lint and the core-dump round trip.
    Exit status: 0 clean, 1 findings, 2 usage error. *)

module F = Ldb_dbgcheck.Finding
module D = Ldb_dbgcheck.Dbgcheck
module P = Ldb_util.Posfinding
module Irlint = Ldb_cc.Irlint
module Lattice = Ldb_pscheck.Lattice

(** A finding of any checker: its kind's name and its two renderings. *)
type row = { kind : string; text : string; json : string }

let of_finding (f : F.t) =
  { kind = F.kind_name f.F.kind; text = F.to_string f; json = F.to_json f }

let of_posfinding kind_name (f : _ P.t) =
  { kind = kind_name f.P.kind; text = P.to_string kind_name f; json = P.to_json kind_name f }

let is_kind k =
  F.kind_of_name k <> None || Irlint.kind_of_name k <> None || Lattice.kind_of_name k <> None

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("dbgcheck: " ^ s);
      exit 2)
    fmt

(** Build [sources] for [arch] and check the result: dbgcheck's families
    and the core round trip first, then the IR lint of each source. *)
let check_c arch sources =
  let img, loader_ps =
    try Ldb_link.Driver.build ~arch sources
    with Ldb_cc.Compile.Error m | Ldb_link.Link.Error m -> usage "%s" m
  in
  (* dump the freshly loaded image and verify the dump a reader would
     see: the codec round-trip is part of the contract *)
  let core = Ldb_machine.Core.of_proc (Ldb_link.Link.load img) ~signal:5 ~code:0 in
  let core_findings =
    match Ldb_machine.Core.of_string (Ldb_machine.Core.to_string core) with
    | Ok (co, _) -> D.check_core img co
    | Error m ->
        [ { F.kind = F.Table_error; target = Ldb_machine.Arch.name arch; where = "core";
            msg = "core round-trip failed: " ^ m } ]
  in
  let ir_findings =
    List.concat_map
      (fun (file, src) ->
        Irlint.check_unit ~file (Ldb_cc.Compile.translate ~arch ~debug:true ~file src))
      sources
  in
  ( List.map of_finding (D.check ~sources img loader_ps @ core_findings),
    List.map (of_posfinding Irlint.kind_name) ir_findings )

let check_ps file =
  List.map (of_posfinding Lattice.kind_name)
    (Ldb_pscheck.Pscheck.check_program ~env:(Ldb_pscheck.Pscheck.debugger_env ()) ~deep:true
       ~name:file (read_file file))

let print ~json ~summary rows =
  if json then print_endline ("[" ^ String.concat "," (List.map (fun r -> r.json) rows) ^ "]")
  else begin
    List.iter (fun r -> print_endline r.text) rows;
    Printf.printf "dbgcheck: %d %s\n" (List.length rows) summary
  end

let () =
  let json = ref false in
  let ignored = ref [] in
  let archs = ref Ldb_machine.Arch.all in
  let examples = ref false in
  let bpcverify = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "-json" :: rest -> json := true; parse rest
    | "-examples" :: rest -> examples := true; parse rest
    | "-bpcverify" :: rest -> bpcverify := true; parse rest
    | "-ignore" :: k :: rest ->
        if not (is_kind k) then usage "unknown finding kind %s" k;
        ignored := k :: !ignored;
        parse rest
    | [ "-ignore" ] -> usage "-ignore needs an argument"
    | "-target" :: name :: rest -> (
        match Ldb_machine.Arch.of_name name with
        | Some a -> archs := [ a ]; parse rest
        | None -> usage "unknown target %s" name)
    | [ "-target" ] -> usage "-target needs an argument"
    | f :: _ when String.length f > 0 && f.[0] = '-' -> usage "unknown option %s" f
    | f :: rest -> files := !files @ [ f ]; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* -bpcverify is a report, not a pass/fail check: the verdicts are the
     output, and the golden diff is what gates drift.  Exit 0 always. *)
  if !bpcverify then begin
    print ~json:!json ~summary:"bpcverify verdict(s)"
      (List.map of_finding (List.concat_map D.check_bpcode !archs));
    exit 0
  end;
  let ps_files, c_files = List.partition (fun f -> Filename.check_suffix f ".ps") !files in
  let c_units =
    (if !examples then List.map (fun s -> [ s ]) Example_programs.sources else [])
    @ if c_files = [] then [] else [ List.map (fun f -> (f, read_file f)) c_files ]
  in
  let dbg, ir =
    List.split
      (List.concat_map (fun sources -> List.map (fun a -> check_c a sources) !archs) c_units)
  in
  let rows =
    List.filter
      (fun r -> not (List.mem r.kind !ignored))
      (List.concat dbg @ List.concat ir @ List.concat_map check_ps ps_files)
  in
  print ~json:!json ~summary:"finding(s)" rows;
  exit (if rows = [] then 0 else 1)
