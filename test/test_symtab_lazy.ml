(** Demand-driven symbol tables: forcing one unit never touches another,
    lazy and eager lookup agree on every architecture, a unit whose body
    fails stays retryable, compressed tables behave identically, and the
    accumulators scale to many-unit programs. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Symtab = Ldb_ldb.Symtab
module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp

let check = Alcotest.check

(* two units; afun/bfun names make the demand hints unambiguous *)
let a_c =
  {|
int bfun(int x);
static int astatic;
int aglobal = 7;
int afun(int n)
{
    int a;
    a = n + 1;
    astatic = a;
    return a;
}
int main(void)
{
    printf("%d\n", bfun(afun(1)));
    return 0;
}
|}

let b_c =
  {|
static int bstatic;
int bfun(int x)
{
    int b;
    b = x * 2;
    bstatic = b;
    return b;
}
|}

let two_unit_session ?compress ~arch () =
  Testkit.debug_session ?compress ~arch [ ("a.c", a_c); ("b.c", b_c) ]

(* the pre-index lookups, kept as reference implementations: scans over
   the flat list of procedures a fully forced table yields *)
let proc_by_name_scan procs name =
  List.find_opt (fun e -> Symtab.entry_name e = name) procs

let stops_at_line_scan procs ~line : Symtab.stop list =
  List.concat_map
    (fun p -> List.filter (fun s -> s.Symtab.stop_line = line) (Symtab.stops_of_proc p))
    procs

let with_force_log f =
  let saved = !Symtab.force_hook in
  let log = ref [] in
  Symtab.force_hook := (fun file -> log := file :: !log);
  Fun.protect ~finally:(fun () -> Symtab.force_hook := saved) (fun () -> f log)

(* --- laziness ------------------------------------------------------------------ *)

let test_lazy_attach () =
  List.iter
    (fun arch ->
      with_force_log (fun log ->
          let s = two_unit_session ~arch () in
          let st = s.Testkit.tg.Ldb.tg_symtab in
          (* attach forces nothing *)
          check Alcotest.(list string) (Arch.name arch ^ " attach") []
            (Symtab.forced_units st);
          check Alcotest.int (Arch.name arch ^ " attach bytes") 0 (Symtab.forced_bytes st);
          (* source files are known without forcing *)
          check Alcotest.(list string) (Arch.name arch ^ " files") [ "a.c"; "b.c" ]
            (Symtab.source_files st);
          (* a breakpoint in afun forces a.c only *)
          ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "afun" : int);
          check Alcotest.(list string) (Arch.name arch ^ " one unit forced") [ "a.c" ]
            (Symtab.forced_units st);
          check Alcotest.(list string) (Arch.name arch ^ " hook saw a.c only") [ "a.c" ]
            !log;
          Alcotest.(check bool) (Arch.name arch ^ " partial bytes") true
            (Symtab.forced_bytes st < Symtab.total_bytes st);
          (* a query into b.c forces exactly the other unit *)
          ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
          check Alcotest.(list string) (Arch.name arch ^ " both forced") [ "a.c"; "b.c" ]
            (Symtab.forced_units st);
          check Alcotest.(list string) (Arch.name arch ^ " hook order") [ "b.c"; "a.c" ]
            !log))
    Arch.all

let test_line_queries_by_file () =
  let arch = Arch.Mips in
  with_force_log (fun log ->
      let s = two_unit_session ~arch () in
      let st = s.Testkit.tg.Ldb.tg_symtab in
      (* line 7 exists in both units; restricting to b.c forces only b.c *)
      let addrs = Ldb.break_line ~file:"b.c" s.Testkit.d s.Testkit.tg ~line:7 in
      Alcotest.(check bool) "stops found" true (addrs <> []);
      check Alcotest.(list string) "only b.c forced" [ "b.c" ] (Symtab.forced_units st);
      check Alcotest.(list string) "hook" [ "b.c" ] !log;
      (* the unrestricted query forces the remaining covering unit and
         returns stops from both *)
      let all = Ldb.break_line s.Testkit.d s.Testkit.tg ~line:7 in
      Alcotest.(check bool) "more stops across units" true
        (List.length all >= List.length addrs);
      check Alcotest.(list string) "both forced" [ "a.c"; "b.c" ] (Symtab.forced_units st))

let test_stepping_forces_one_unit () =
  (* the single-step loop queries stop addresses constantly; make sure the
     pc index keeps it inside the procedure's own unit *)
  let arch = Arch.Mips in
  let s = two_unit_session ~arch () in
  let st = s.Testkit.tg.Ldb.tg_symtab in
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
  (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "did not stop at bfun");
  ignore (Testkit.ok (Ldb.step_source s.Testkit.d s.Testkit.tg) : Ldb.state);
  let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
  check Alcotest.string "still in bfun" "bfun" (Ldb.frame_function s.Testkit.d s.Testkit.tg fr);
  (* stepping inside bfun needed b.c (for its stops) but never a.c *)
  check Alcotest.(list string) "a.c untouched" [ "b.c" ] (Symtab.forced_units st)

(* --- lazy/eager agreement ----------------------------------------------------- *)

let test_lazy_eager_agree () =
  List.iter
    (fun arch ->
      let lazy_s = two_unit_session ~arch () in
      let eager_s = two_unit_session ~arch () in
      Ldb.force_symbols eager_s.Testkit.d eager_s.Testkit.tg;
      let stop s = ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
        match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
        | Ldb.Stopped _ -> Ldb.top_frame s.Testkit.d s.Testkit.tg
        | _ -> Alcotest.failf "%s: did not stop" (Arch.name arch)
      in
      let fl = stop lazy_s and fe = stop eager_s in
      (* resolution order (locals -> statics -> externs) is unchanged:
         the same names print the same values (or fail identically)
         either way *)
      let printed s fr name =
        match Ldb.print_value s.Testkit.d s.Testkit.tg fr name with
        | v -> v
        | exception Ldb.Error m -> "error: " ^ m
      in
      List.iter
        (fun name ->
          check Alcotest.string
            (Printf.sprintf "%s %s" (Arch.name arch) name)
            (printed eager_s fe name) (printed lazy_s fl name))
        [ "x"; "b"; "bstatic"; "aglobal"; "nosuch" ];
      (* indexed lookups agree with the linear-scan baseline *)
      let st = lazy_s.Testkit.tg.Ldb.tg_symtab in
      Ldb.force_symbols lazy_s.Testkit.d lazy_s.Testkit.tg;
      List.iter
        (fun name ->
          let ix = Symtab.proc_by_name st name in
          let sc = proc_by_name_scan (Symtab.procs st) name in
          Alcotest.(check bool)
            (Printf.sprintf "%s proc_by_name %s" (Arch.name arch) name)
            true
            (match (ix, sc) with Some a, Some b -> a == b | None, None -> true | _ -> false))
        [ "afun"; "bfun"; "main"; "nosuch" ];
      List.iter
        (fun line ->
          let names stops =
            List.sort compare
              (List.map (fun s -> (Symtab.entry_name s.Symtab.stop_proc, s.Symtab.stop_index)) stops)
          in
          check
            Alcotest.(list (pair string int))
            (Printf.sprintf "%s stops@%d" (Arch.name arch) line)
            (names (stops_at_line_scan (Symtab.procs st) ~line))
            (names (Symtab.stops_at_line st ~line)))
        [ 5; 6; 7; 8; 99 ])
    Arch.all

(* --- failure path -------------------------------------------------------------- *)

let crafted_symtab ~units_ps =
  let interp = Ldb_pscript.Ps.create () in
  let defs = V.dict_create () in
  I.begin_dict interp defs;
  I.run_string interp (Printf.sprintf "/__symtab << /architecture (mips) /units << %s >> >> def" units_ps);
  I.end_dict interp;
  let symtab_dict =
    match V.dict_get defs "__symtab" with
    | Some v -> V.to_dict v
    | None -> Alcotest.fail "no __symtab"
  in
  (interp, Symtab.make ~interp ~symtab_dict)

let contains s sub =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(** A deferred body is pslint-checked before it first runs: a body that
    names an unknown operator is refused before any of it executes, the
    unit is quarantined, and defining the operator later does not get the
    body past the static check. *)
let test_lint_gate_refuses () =
  let body = "NoSuchOperatorXYZ /UNITRESULT$u1 << /procs [ << /name (p1) >> ] >> def" in
  let interp, st =
    crafted_symtab
      ~units_ps:(Printf.sprintf "(u1.c) << /body (%s) /tag (u1) >>" (Ldb_cc.Psemit.ps_escape body))
  in
  with_force_log (fun log ->
      (match Symtab.force_unit st ~file:"u1.c" with
      | () -> Alcotest.fail "a body with a pslint finding was forced"
      | exception Symtab.Error m ->
          Alcotest.(check bool) "error names pslint" true (contains m "pslint"));
      check Alcotest.(list string) "quarantined" [ "u1.c" ]
        (List.map fst (Symtab.quarantined_units st));
      check Alcotest.(list string) "still unforced" [] (Symtab.forced_units st);
      I.run_string interp "/NoSuchOperatorXYZ { } def";
      (match Symtab.force_unit st ~file:"u1.c" with
      | () -> Alcotest.fail "the static check let the body through after a repair"
      | exception Symtab.Error m ->
          Alcotest.(check bool) "retry names pslint" true (contains m "pslint"));
      check Alcotest.(list string) "no body ran" [] !log)

let test_failing_unit_is_retryable () =
  let body = "/NoSuchOperatorXYZ load exec /UNITRESULT$u1 << /procs [ << /name (p1) >> ] >> def" in
  let interp, st =
    crafted_symtab
      ~units_ps:
        (Printf.sprintf "(u1.c) << /body (%s) /tag (u1) >>" (Ldb_cc.Psemit.ps_escape body))
  in
  (* the body raises: the unit must not latch as forced *)
  (match Symtab.force_unit st ~file:"u1.c" with
  | () -> Alcotest.fail "force of a broken unit succeeded"
  | exception _ -> ());
  check Alcotest.(list string) "still unforced" [] (Symtab.forced_units st);
  (* the table stays usable: a second failure is identical *)
  (match Symtab.force_all st with
  | () -> Alcotest.fail "force_all of a broken unit succeeded"
  | exception _ -> ());
  (* repair the environment and retry the same unit *)
  I.run_string interp "/NoSuchOperatorXYZ { } def";
  Symtab.force_unit st ~file:"u1.c";
  check Alcotest.(list string) "forced after repair" [ "u1.c" ] (Symtab.forced_units st);
  Alcotest.(check bool) "lookup works after repair" true
    (Symtab.proc_by_name st "p1" <> None)

(** A unit whose body fails is {e quarantined}: demand-driven searches
    route around it and never re-execute the broken body, listing names
    the unit and why, and only an explicit per-unit force (the repair
    path) lifts the quarantine. *)
let test_quarantine_routes_around () =
  let bad = "/NoSuchOperatorABC load exec /UNITRESULT$u1 << /procs [ << /name (p1) >> ] >> def" in
  let good = "/UNITRESULT$u2 << /procs [ << /name (p2) >> ] >> def" in
  let interp, st =
    crafted_symtab
      ~units_ps:
        (Printf.sprintf "(u1.c) << /body (%s) /tag (u1) >> (u2.c) << /body (%s) /tag (u2) >>"
           (Ldb_cc.Psemit.ps_escape bad) (Ldb_cc.Psemit.ps_escape good))
  in
  with_force_log (fun log ->
      (* an unhinted search sweeps the units: u1 breaks (and is
         quarantined), but the search routes around it and finds p2 *)
      Alcotest.(check bool) "p2 found despite broken u1" true
        (Symtab.proc_by_name st "p2" <> None);
      check Alcotest.(list string) "only u2 latched" [ "u2.c" ]
        (Symtab.forced_units st);
      (match Symtab.quarantined_units st with
      | [ ("u1.c", reason) ] ->
          Alcotest.(check bool) "failure reason recorded" true (reason <> "")
      | q ->
          Alcotest.failf "expected u1.c quarantined, got [%s]"
            (String.concat "; " (List.map fst q)));
      let forces_after_first = List.length !log in
      (* a second sweep must not re-execute the broken body *)
      Alcotest.(check bool) "p1 not found" true (Symtab.proc_by_name st "p1" = None);
      check Alcotest.int "quarantined unit not re-forced" forces_after_first
        (List.length !log);
      (* line queries degrade to the units that work, typed-ly *)
      (match Symtab.stops_at_line st ~file:"u1.c" ~line:1 with
      | _ -> Alcotest.fail "line query into a quarantined unit succeeded"
      | exception Symtab.Error m ->
          Alcotest.(check bool) "error names the quarantine" true
            (contains m "quarantined"));
      (* repair the environment; the explicit per-unit force lifts the
         quarantine and the unit joins the table *)
      I.run_string interp "/NoSuchOperatorABC { } def";
      Symtab.force_unit st ~file:"u1.c";
      check Alcotest.(list (pair string string)) "quarantine lifted" []
        (Symtab.quarantined_units st);
      Alcotest.(check bool) "p1 found after repair" true
        (Symtab.proc_by_name st "p1" <> None))

(* --- many units ----------------------------------------------------------------- *)

let test_many_units () =
  let n = 40 in
  let buf = Buffer.create 4096 in
  for i = 0 to n - 1 do
    let body =
      Printf.sprintf "/UNITRESULT$u%02d << /procs [ << /name (p%02d) >> ] >> def" i i
    in
    Buffer.add_string buf
      (Printf.sprintf "(u%02d.c) << /body (%s) /tag (u%02d) >> " i
         (Ldb_cc.Psemit.ps_escape body) i)
  done;
  let _, st = crafted_symtab ~units_ps:(Buffer.contents buf) in
  check Alcotest.int "unit count" n (Symtab.unit_count st);
  let procs = Symtab.procs st in
  check Alcotest.int "all procs collected" n (List.length procs);
  (* unit order (sorted by file) is preserved in the accumulated list *)
  check
    Alcotest.(list string)
    "proc order"
    (List.init n (Printf.sprintf "p%02d"))
    (List.map Symtab.entry_name procs);
  (* forcing again must not duplicate *)
  Symtab.force_all st;
  check Alcotest.int "idempotent" n (List.length (Symtab.procs st));
  Alcotest.(check bool) "indexed lookup" true (Symtab.proc_by_name st "p27" <> None)

(* --- compressed tables ----------------------------------------------------------- *)

let test_compressed_sessions () =
  List.iter
    (fun arch ->
      let s = two_unit_session ~compress:true ~arch () in
      let st = s.Testkit.tg.Ldb.tg_symtab in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
      (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.failf "%s: did not stop in compressed session" (Arch.name arch));
      let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
      check Alcotest.string (Arch.name arch ^ " function") "bfun"
        (Ldb.frame_function s.Testkit.d s.Testkit.tg fr);
      (* only the queried unit was decoded and forced *)
      check Alcotest.(list string) (Arch.name arch ^ " forced") [ "b.c" ]
        (Symtab.forced_units st);
      (* a compressed and a plain session print identical values *)
      let plain = two_unit_session ~arch () in
      ignore (Ldb.break_function plain.Testkit.d plain.Testkit.tg "bfun" : int);
      (match Testkit.ok (Ldb.continue_ plain.Testkit.d plain.Testkit.tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.failf "%s: plain session did not stop" (Arch.name arch));
      let pf = Ldb.top_frame plain.Testkit.d plain.Testkit.tg in
      List.iter
        (fun name ->
          check Alcotest.string
            (Printf.sprintf "%s compressed %s" (Arch.name arch) name)
            (Ldb.print_value plain.Testkit.d plain.Testkit.tg pf name)
            (Ldb.print_value s.Testkit.d s.Testkit.tg fr name))
        [ "x"; "aglobal" ])
    Arch.all

(* --- cost ------------------------------------------------------------------------ *)

(* a synthetic program of [n_units] units x [funcs_per_unit] procedures,
   big enough that forcing a unit, and scanning the whole table, costs
   something measurable *)
let n_units = 8
let funcs_per_unit = 12
let func_name u i = Printf.sprintf "f_%d_%d" u i

let unit_source u =
  let buf = Buffer.create 1024 in
  for i = 0 to funcs_per_unit - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "int %s(int x)\n{\n    int a;\n    int b;\n    a = x + %d;\n    b = a * 2;\n    a = b - x;\n    return a;\n}\n"
         (func_name u i) (i + 1))
  done;
  if u = 0 then begin
    Buffer.add_string buf "int main(void)\n{\n    int r;\n    r = 0;\n";
    for v = 0 to n_units - 1 do
      Buffer.add_string buf (Printf.sprintf "    r = r + %s(%d);\n" (func_name v 0) v)
    done;
    Buffer.add_string buf "    printf(\"%d\\n\", r);\n    return 0;\n}\n"
  end;
  Buffer.contents buf

let many_sources = List.init n_units (fun u -> (Printf.sprintf "u%d.c" u, unit_source u))

let many_names =
  Array.of_list
    (List.concat (List.init n_units (fun u -> List.init funcs_per_unit (func_name u))))

(** Planting one breakpoint forces its defining unit and nothing else:
    fewer units than exist, and under half the table's bytes. *)
let test_lazy_attach_cost () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch many_sources in
      ignore
        (Ldb.break_function s.Testkit.d s.Testkit.tg
           (func_name (n_units - 1) (funcs_per_unit / 2))
          : int);
      let st = s.Testkit.tg.Ldb.tg_symtab in
      check Alcotest.int (an ^ " unit count") n_units (Symtab.unit_count st);
      check Alcotest.int (an ^ " one unit forced") 1 (List.length (Symtab.forced_units st));
      Alcotest.(check bool)
        (Printf.sprintf "%s forced %d of %d table bytes: under half" an
           (Symtab.forced_bytes st) (Symtab.total_bytes st))
        true
        (2 * Symtab.forced_bytes st < Symtab.total_bytes st))
    Arch.all

(** The indexes pay for themselves: [proc_by_name] and [stops_at_line]
    at least 10x faster than the scans they replaced, and the pc index
    no slower than re-deriving every stop address of the procedure at
    the pc.  Each ratio is the median of seven interleaved timings. *)
let test_indexed_lookups_beat_scans () =
  let queries = 2_000 in
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch many_sources in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      let st = tg.Ldb.tg_symtab in
      Ldb.force_symbols d tg;
      let procs = Symtab.procs st in
      let name i = many_names.(i mod Array.length many_names) in
      (* lines 2..9 carry stops in every unit *)
      let line i = 2 + (i mod 8) in
      let repeat f () =
        Testkit.cpu_time (fun () ->
            for i = 1 to queries do
              f i
            done)
      in
      let gate what ~min ratio =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: index %.1fx the scan, gate %.0fx" an what ratio min)
          true (ratio >= min)
      in
      gate "proc_by_name" ~min:10.0
        (Testkit.median_ratio
           ~slow:(repeat (fun i -> ignore (proc_by_name_scan procs (name i) : V.t option)))
           ~fast:(repeat (fun i -> ignore (Symtab.proc_by_name st (name i) : V.t option)))
           ());
      gate "stops_at_line" ~min:10.0
        (Testkit.median_ratio
           ~slow:(repeat (fun i ->
                      ignore (stops_at_line_scan procs ~line:(line i) : Symtab.stop list)))
           ~fast:(repeat (fun i ->
                      ignore (Symtab.stops_at_line st ~line:(line i) : Symtab.stop list)))
           ());
      (* pc -> stop addresses, the single-step loop's query, at the entry
         stop of the first 16 procedures *)
      let pcs =
        Array.of_list
          (List.filter_map
             (fun e ->
               match Symtab.stops_of_proc e with
               | s :: _ -> Some (Ldb.stop_address d tg s)
               | [] -> None)
             (List.filteri (fun i _ -> i < 16) procs))
      in
      let pc i = pcs.(i mod Array.length pcs) in
      gate "pc index" ~min:1.0
        (Testkit.median_ratio
           ~slow:(repeat (fun i ->
                      ignore
                        (match Ldb.proc_entry_at d tg ~pc:(pc i) with
                         | None -> []
                         | Some proc ->
                             List.map (Ldb.stop_address d tg) (Symtab.stops_of_proc proc)
                          : int list)))
           ~fast:(repeat (fun i -> ignore (Ldb.stop_addresses d tg ~pc:(pc i) : int list)))
           ()))
    Arch.all

(** Validity ranges ride along in the table: they must be present, and
    their [/validity] lines cost under 10% of the table's other bytes. *)
let test_validity_ranges_are_cheap () =
  let range_bytes body =
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix:"/validity [" (String.trim line) then
          acc + String.length line + 1
        else acc)
      0 (String.split_on_char '\n' body)
  in
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch many_sources in
      let st = s.Testkit.tg.Ldb.tg_symtab in
      Ldb.force_symbols s.Testkit.d s.Testkit.tg;
      let ranges =
        List.fold_left
          (fun acc u ->
            match u.Symtab.u_body.V.v with V.Str b -> acc + range_bytes b | _ -> acc)
          0 st.Symtab.units
      in
      let plain = Symtab.total_bytes st - ranges in
      Alcotest.(check bool) (an ^ " ranges present") true (ranges > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s ranges cost %d of %d bytes: under 10%%" an ranges plain)
        true
        (10 * ranges < plain))
    Arch.all

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "symtab_lazy"
    [
      ( "laziness",
        [ case "attach forces nothing" test_lazy_attach;
          case "line queries by file" test_line_queries_by_file;
          case "stepping stays in one unit" test_stepping_forces_one_unit ] );
      ("agreement", [ case "lazy = eager on all targets" test_lazy_eager_agree ]);
      ( "failure",
        [ case "pslint gate refuses a body" test_lint_gate_refuses;
          case "failing unit is retryable" test_failing_unit_is_retryable;
          case "quarantine routes around" test_quarantine_routes_around;
          case "many units" test_many_units ] );
      ("compression", [ case "compressed sessions" test_compressed_sessions ]);
      ( "cost",
        [ case "lazy attach forces a fraction" test_lazy_attach_cost;
          case "indexed lookups beat the scans" test_indexed_lookups_beat_scans;
          case "validity ranges under 10%" test_validity_ranges_are_cheap ] );
    ]
