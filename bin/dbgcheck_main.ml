(** dbgcheck: command-line front end of the whole-artifact debug-info
    verifier.

    Usage:
      dbgcheck [options] [file.c ...]
        -json            machine-readable output (one JSON array)
        -bare            findings only, no summary line
        -ignore K        drop findings of kind K (repeatable; see
                         Finding.kind_name)
        -target NAME     check one architecture (default: all four)
        -examples        build and check the built-in example programs
        -bpcverify       report the condition-bytecode verifier's verdict
                         on the seeded corpus (a golden test pins it) and
                         do nothing else
        -no-stops / -no-symbols / -no-frames / -no-differential /
        -no-validity     disable one check family
        -no-ir           skip the IR dataflow lint of the named C files
        -no-core         skip the core-dump round-trip check

    Named C files are compiled and linked per target, then verified.
    Exit status: 0 clean, 1 findings, 2 usage error. *)

module F = Ldb_dbgcheck.Finding
module D = Ldb_dbgcheck.Dbgcheck

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let json = ref false in
  let bare = ref false in
  let ignored = ref [] in
  let ir_ignored = ref [] in
  let archs = ref Ldb_machine.Arch.all in
  let do_examples = ref false in
  let do_bpcverify = ref false in
  let do_ir = ref true in
  let do_core = ref true in
  let opts = ref D.all_checks in
  let files = ref [] in
  let usage fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("dbgcheck: " ^ s);
        exit 2)
      fmt
  in
  let rec parse = function
    | [] -> ()
    | "-json" :: rest -> json := true; parse rest
    | "-bare" :: rest -> bare := true; parse rest
    | "-examples" :: rest -> do_examples := true; parse rest
    | "-bpcverify" :: rest -> do_bpcverify := true; parse rest
    | "-no-stops" :: rest -> opts := { !opts with D.stops = false }; parse rest
    | "-no-symbols" :: rest -> opts := { !opts with D.symbols = false }; parse rest
    | "-no-frames" :: rest -> opts := { !opts with D.frames = false }; parse rest
    | "-no-differential" :: rest -> opts := { !opts with D.differential = false }; parse rest
    | "-no-validity" :: rest -> opts := { !opts with D.validity = false }; parse rest
    | "-no-ir" :: rest -> do_ir := false; parse rest
    | "-no-core" :: rest -> do_core := false; parse rest
    | "-ignore" :: k :: rest -> (
        match (F.kind_of_name k, Ldb_cc.Irlint.kind_of_name k) with
        | Some kind, _ -> ignored := kind :: !ignored; parse rest
        | None, Some kind -> ir_ignored := kind :: !ir_ignored; parse rest
        | None, None -> usage "unknown finding kind %s" k)
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
  if !do_bpcverify then begin
    let findings = List.concat_map D.check_bpcode !archs in
    if !json then
      print_endline ("[" ^ String.concat "," (List.map F.to_json findings) ^ "]")
    else begin
      List.iter (fun f -> print_endline (F.to_string f)) findings;
      if not !bare then
        Printf.printf "dbgcheck: %d bpcverify verdict(s)\n" (List.length findings)
    end;
    exit 0
  end;
  let findings = ref [] in
  let ir_findings = ref [] in
  let check_sources sources =
    List.iter
      (fun arch ->
        let img, loader_ps =
          try Ldb_link.Driver.build ~arch sources
          with Ldb_cc.Compile.Error m | Ldb_link.Link.Error m ->
            prerr_endline ("dbgcheck: " ^ m);
            exit 2
        in
        if !do_ir then
          ir_findings :=
            !ir_findings
            @ List.concat_map
                (fun (file, src) ->
                  Ldb_cc.Irlint.check_unit ~file
                    (Ldb_cc.Compile.translate ~arch ~debug:true ~file src))
                sources;
        findings := !findings @ D.check ~opts:!opts ~sources img loader_ps;
        if !do_core then begin
          (* dump the freshly loaded image and verify the dump a reader
             would see: the codec round-trip is part of the contract *)
          let proc = Ldb_link.Link.load img in
          let core = Ldb_machine.Core.of_proc proc ~signal:5 ~code:0 in
          (match Ldb_machine.Core.of_string (Ldb_machine.Core.to_string core) with
          | Ok (co, _) -> findings := !findings @ D.check_core img co
          | Error m ->
              findings :=
                !findings
                @ [ { F.kind = F.Table_error; target = Ldb_machine.Arch.name arch;
                      where = "core"; msg = "core round-trip failed: " ^ m } ])
        end)
      !archs
  in
  if !do_examples then List.iter (fun s -> check_sources [ s ]) Example_programs.sources;
  if !files <> [] then check_sources (List.map (fun f -> (f, read_file f)) !files);
  let kept = List.filter (fun (f : F.t) -> not (List.mem f.F.kind !ignored)) !findings in
  let ir_kept =
    List.filter
      (fun (f : Ldb_cc.Irlint.finding) -> not (List.mem f.Ldb_cc.Irlint.kind !ir_ignored))
      !ir_findings
  in
  if !json then
    print_endline
      ("["
      ^ String.concat ","
          (List.map F.to_json kept @ List.map Ldb_cc.Irlint.finding_to_json ir_kept)
      ^ "]")
  else begin
    List.iter (fun f -> print_endline (F.to_string f)) kept;
    List.iter (fun f -> print_endline (Ldb_cc.Irlint.finding_to_string f)) ir_kept;
    if not !bare then
      Printf.printf "dbgcheck: %d finding(s)\n" (List.length kept + List.length ir_kept)
  end;
  exit (if kept = [] && ir_kept = [] then 0 else 1)
