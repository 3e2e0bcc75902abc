(** pslint: command-line front end of the static PostScript verifier.

    Usage:
      pslint [options] [file.ps ...]
        -json       machine-readable output (one JSON array)
        -bare       do not preload the shared prelude / debugger names
        -no-deep    skip stored-but-unexecuted procedure bodies
        -ignore K   drop findings of kind K (repeatable; see Lattice.kind_name)
        -prelude    check the shared prelude itself
        -examples   compile the built-in example programs for every target
                    and check each emitted symbol table
    Exit status is 1 when any finding survives the filters, 0 otherwise. *)

module L = Ldb_pscheck.Lattice
module C = Ldb_pscheck.Pscheck

let check_emitted ~deep findings_out =
  List.iter
    (fun arch ->
      List.iter
        (fun (file, src) ->
          let o = Ldb_cc.Compile.compile ~defer:false ~arch ~file src in
          match o.Ldb_cc.Asm.o_ps with
          | None -> ()
          | Some ps ->
              let env = C.debugger_env () in
              let name =
                Printf.sprintf "%s@%s" file (Ldb_machine.Arch.name arch)
              in
              findings_out := !findings_out @ C.check_program ~env ~deep ~name ps.Ldb_cc.Asm.pp_defs)
        Example_programs.sources)
    Ldb_machine.Arch.all

let () =
  let json = ref false in
  let bare = ref false in
  let deep = ref true in
  let ignored = ref [] in
  let do_prelude = ref false in
  let do_examples = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "-json" :: rest -> json := true; parse rest
    | "-bare" :: rest -> bare := true; parse rest
    | "-no-deep" :: rest -> deep := false; parse rest
    | "-prelude" :: rest -> do_prelude := true; parse rest
    | "-examples" :: rest -> do_examples := true; parse rest
    | "-ignore" :: k :: rest -> (
        match L.kind_of_name k with
        | Some kind -> ignored := kind :: !ignored; parse rest
        | None ->
            Printf.eprintf "pslint: unknown finding kind %s\n" k;
            exit 2)
    | "-ignore" :: [] ->
        prerr_endline "pslint: -ignore needs an argument";
        exit 2
    | f :: _ when String.length f > 0 && f.[0] = '-' ->
        Printf.eprintf "pslint: unknown option %s\n" f;
        exit 2
    | f :: rest -> files := !files @ [ f ]; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let findings = ref [] in
  if !do_prelude then begin
    let env = C.base_env () in
    C.declare_debugger env;
    findings :=
      !findings
      @ C.check_program ~env ~deep:!deep ~name:"prelude" Ldb_pscript.Prelude.source
  end;
  if !do_examples then check_emitted ~deep:!deep findings;
  List.iter
    (fun f ->
      let src =
        let ic = open_in_bin f in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let env = if !bare then C.base_env () else C.debugger_env () in
      findings := !findings @ C.check_program ~env ~deep:!deep ~name:f src)
    !files;
  let kept =
    List.filter (fun (f : L.finding) -> not (List.mem f.L.kind !ignored)) !findings
  in
  if !json then
    print_endline ("[" ^ String.concat "," (List.map L.finding_to_json kept) ^ "]")
  else begin
    List.iter (fun f -> print_endline (L.finding_to_string f)) kept;
    Printf.printf "pslint: %d finding(s)\n" (List.length kept)
  end;
  exit (if kept = [] then 0 else 1)
