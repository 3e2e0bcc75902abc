(** Post-mortem debugging tests: the core-dump codec, dump production on
    fatal traps and on kill, dump-backed sessions on all four targets,
    the live-vs-post-mortem differential the feature promises (a dump
    must answer exactly like the live session it froze), salvage mode on
    truncated and corrupted dumps, and the no-trap-bytes-left-behind
    guarantee of detach and kill. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Coredump = Ldb_ldb.Coredump
module Breakpoint = Ldb_ldb.Breakpoint
module Disas = Ldb_ldb.Disas
module Crc32 = Ldb_util.Crc32

let check = Alcotest.check

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* a program that dies of SIGSEGV: the store lands far past the 4 MB
   simulated address space *)
let segv_c =
  {|
int boom(int k)
{
    static int a[4];
    a[0] = 7;
    a[k] = 1;
    return a[0];
}
int main(void)
{
    int n;
    n = 4000000;
    printf("before\n");
    boom(n);
    printf("after\n");
    return 0;
}
|}

let segv_sources = [ ("segv.c", segv_c) ]

(** Run the SIGSEGV program under a live session up to its fault. *)
let fault_session ~arch : Testkit.session =
  let s = Testkit.debug_session ~arch segv_sources in
  (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Stopped { signal = Signal.SIGSEGV; _ } -> ()
  | _ -> Alcotest.failf "%s: program did not die of SIGSEGV" (Arch.name arch));
  s

(* --- codec ----------------------------------------------------------------- *)

let gen_core = Testkit.gen_core

let prop_codec_roundtrip =
  Testkit.qtest "random cores roundtrip" ~count:300 gen_core (fun co ->
      match Core.of_string (Core.to_string co) with
      | Ok (co', []) -> co' = co
      | Ok (_, _ :: _) | Error _ -> false)

let prop_codec_total =
  Testkit.qtest "of_string never raises" ~count:300
    QCheck.(string_gen_of_size (Gen.int_bound 600) Gen.char)
    (fun s -> match Core.of_string s with Ok _ | Error _ -> true)

(* --- sections against a flat scan ------------------------------------------ *)

(** The reference for section trimming: scan the whole range as one flat
    string, drop the all-zero margins and keep 8-byte alignment relative
    to [base].  [None] when the whole range is zero. *)
let trim_zeros ~(base : int) (bytes : string) : (int * string) option =
  let n = String.length bytes in
  let first = ref 0 in
  while !first < n && bytes.[!first] = '\000' do
    incr first
  done;
  if !first = n then None
  else begin
    let last = ref (n - 1) in
    while bytes.[!last] = '\000' do
      decr last
    done;
    let lo = !first land lnot 7 in
    let hi = min n ((!last + 8) land lnot 7) in
    Some (base + lo, String.sub bytes lo (hi - lo))
  end

(* stores clustered at section and page edges, zero runs included *)
let gen_stores : (Arch.t * (int * string) list) QCheck.arbitrary =
  let open QCheck.Gen in
  let open Ram.Layout in
  let edges = [ code_base; data_base; context_base; sysarg_base; size ] in
  let addr =
    frequency
      [ (3, map2 (fun e d -> e + d) (oneofl edges) (int_range (-24) 24));
        (2, map2 (fun pg d -> (pg * Ram.page_size) + d) (int_bound 1023) (int_range (-8) 8));
        (1, int_range code_base (size - 1)) ]
  in
  let bytes = string_size ~gen:(frequency [ (2, return '\000'); (3, char) ]) (int_range 1 40) in
  let store = map2 (fun a s -> (a, s)) addr bytes in
  QCheck.make
    ~print:(fun (arch, stores) ->
      Arch.name arch ^ ": "
      ^ String.concat "; "
          (List.map (fun (a, s) -> Printf.sprintf "%#x+%d" a (String.length s)) stores))
    (pair (oneofl Arch.all) (list_size (int_bound 30) store))

(** The reference for section splitting: cut the flat read of a layout
    range at every all-zero page (pages of [Ram.page_size] counted from
    [base]), trim each nonzero run with {!trim_zeros}, and name every run
    after the first by its offset from [base]. *)
let split_flat ~name ~(base : int) (bytes : string) : (string * int * string) list =
  let n = String.length bytes and pg = Ram.page_size in
  let zero i =
    let len = min pg (n - i) in
    String.sub bytes i len = String.make len '\000'
  in
  let rec runs i acc =
    if i >= n then List.rev acc
    else if zero i then runs (i + pg) acc
    else
      let rec stop j = if j < n && not (zero j) then stop (j + pg) else min j n in
      let j = stop i in
      let piece = if acc = [] then name else Printf.sprintf "%s+%x" name i in
      match trim_zeros ~base:(base + i) (String.sub bytes i (j - i)) with
      | Some (b, s) -> runs j ((piece, b, s) :: acc)
      | None -> runs j acc
  in
  runs 0 []

let prop_sections_match_flat_trim =
  Testkit.qtest "of_proc sections = trim_zeros of a flat read split at zero pages"
    ~count:100 gen_stores
    (fun (arch, stores) ->
      let p = Proc.create (Target.of_arch arch) in
      let ram = p.Proc.ram in
      List.iter
        (fun (addr, s) ->
          (* clip to the address space: the reference must see the same bytes *)
          let addr = max 0 addr in
          let len = min (String.length s) (Ram.size ram - addr) in
          if len > 0 then Ram.blit_in ram ~addr (String.sub s 0 len))
        stores;
      let co = Core.of_proc p ~signal:11 ~code:0 in
      let expected =
        let open Ram.Layout in
        List.concat_map
          (fun (name, base, limit) ->
            List.map
              (fun (n, b, bytes) -> (n, b, bytes, Crc32.string bytes))
              (split_flat ~name ~base (Ram.read_string ram ~addr:base ~len:(limit - base))))
          [ ("code", code_base, data_base); ("data", data_base, context_base);
            ("ctx", context_base, sysarg_base); ("stack", sysarg_base, Ram.size ram) ]
      in
      expected
      = List.map
          (fun s -> (s.Core.sec_name, s.Core.sec_base, s.Core.sec_bytes, s.Core.sec_crc))
          co.Core.co_sections)

(* --- dumps exist on every target ------------------------------------------- *)

(** The dumps' CRC-32s: any change to the memory representation, section
    trimming or codec that moves a byte of a dump fails here, even when it
    moves the same way on every run. *)
let golden_dump_crcs =
  [ (Arch.Mips, 0x8c9191c7); (Arch.Sparc, 0x554fef67); (Arch.M68k, 0x325890fe);
    (Arch.Vax, 0xc0836af7) ]

let test_fault_dumps_all_archs () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = fault_session ~arch in
      let co = Ldb.fetch_core s.Testkit.tg in
      check Alcotest.string (an ^ " dump CRC-32")
        (Printf.sprintf "%08x" (List.assoc arch golden_dump_crcs))
        (Printf.sprintf "%08x" (Crc32.string (Core.to_string co)));
      check Testkit.arch_testable (an ^ " arch") arch co.Core.co_arch;
      check Alcotest.int (an ^ " signal") (Signal.number Signal.SIGSEGV)
        co.Core.co_signal;
      List.iter
        (fun name ->
          if
            not
              (List.exists
                 (fun sec -> sec.Core.sec_name = name && sec.Core.sec_ok)
                 co.Core.co_sections)
          then Alcotest.failf "%s: dump has no intact %S section" an name)
        [ "code"; "data"; "ctx"; "stack" ];
      (* the dump names a pc inside the code segment *)
      check Alcotest.bool (an ^ " pc in code") true
        (co.Core.co_pc >= Ram.Layout.code_base
        && co.Core.co_pc < Ram.Layout.data_base))
    Arch.all

(* --- the live-vs-post-mortem differential ---------------------------------- *)

(** Everything a session would tell a user at the fault, as strings. *)
type answers = {
  a_where : string;
  a_backtrace : string list;
  a_k : string;  (** boom's parameter, top frame *)
  a_n : string;  (** main's local, next frame *)
  a_disas : string;
}

let answers d tg : answers =
  let frames = Ldb.backtrace d tg in
  let top = List.hd frames in
  {
    a_where = Ldb.where d tg;
    a_backtrace = List.map (Ldb.frame_function d tg) frames;
    a_k = Ldb.print_value d tg top "k";
    a_n = Ldb.print_value d tg (List.nth frames 1) "n";
    a_disas =
      Disas.to_string (Ldb.disassemble d tg ~addr:top.Ldb_ldb.Frame.fr_pc ~count:6);
  }

let postmortem_of (s : Testkit.session) : Ldb.t * Ldb.target =
  let bytes = Ldb.core_bytes s.Testkit.tg in
  let d2 = Ldb.create () in
  match Core.of_string bytes with
  | Error m -> Alcotest.failf "core does not decode: %s" m
  | Ok loaded ->
      let tg2 =
        Ldb.attach d2 ~name:"core"
          ~image:(Ldb.load_image d2 ~loader_ps:s.Testkit.proc.Host.hp_loader_ps)
          (Ldb.Postmortem (Coredump.make loaded))
      in
      (d2, tg2)

let test_live_vs_postmortem () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = fault_session ~arch in
      let live = answers s.Testkit.d s.Testkit.tg in
      let d2, tg2 = postmortem_of s in
      check Alcotest.bool (an ^ " is postmortem") true (Ldb.is_postmortem tg2);
      check Alcotest.(list string) (an ^ " no salvage") [] (Ldb.take_salvage tg2);
      let dead = answers d2 tg2 in
      check Alcotest.string (an ^ " where") live.a_where dead.a_where;
      check Alcotest.(list string) (an ^ " backtrace") live.a_backtrace dead.a_backtrace;
      check Alcotest.string (an ^ " k") live.a_k dead.a_k;
      check Alcotest.string (an ^ " n") live.a_n dead.a_n;
      check Alcotest.string (an ^ " disas") live.a_disas dead.a_disas)
    Arch.all

(** A program that has made a system call wrote the argument block at
    [Ram.Layout.sysarg_base], 2 MiB below the stack top, and the zero
    pages in between stay out of its dump: at most 1 MiB on every
    target. *)
let test_printf_dump_bound () =
  List.iter
    (fun arch ->
      let s = fault_session ~arch in
      let dump = String.length (Ldb.core_bytes s.Testkit.tg) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d-byte dump at most 1 MiB" (Arch.name arch) dump)
        true
        (dump > 0 && dump <= 1 lsl 20))
    Arch.all

(* the same fault with no output first: the program never enters the
   simulated kernel, so nothing is written to the argument block *)
let quiet_segv_sources =
  [
    ( "segv.c",
      {|
int boom(int k)
{
    static int a[4];
    a[0] = 7;
    a[k] = 1;
    return a[0];
}
int main(void)
{
    int n;
    n = 4000000;
    boom(n);
    return 0;
}
|} );
  ]

(** Sections split at zero pages and trimmed of zero margins keep a dump
    of the 4 MiB address space small: at most 1 MiB on every target (the
    exact sizes are pinned), with a post-mortem backtrace at least two
    frames deep that matches the live one. *)
let test_sparse_dumps () =
  List.iter
    (fun (arch, size) ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch quiet_segv_sources in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Stopped { signal = Signal.SIGSEGV; _ } -> ()
      | _ -> Alcotest.failf "%s: program did not die of SIGSEGV" an);
      let live = List.map (Ldb.frame_function d tg) (Ldb.backtrace d tg) in
      let dump = String.length (Ldb.core_bytes tg) in
      check Alcotest.int (an ^ " dump bytes") size dump;
      Alcotest.(check bool) (an ^ " dump at most 1 MiB") true (dump > 0 && dump <= 1 lsl 20);
      let d2, tg2 = postmortem_of s in
      let dead = List.map (Ldb.frame_function d2 tg2) (Ldb.backtrace d2 tg2) in
      check Alcotest.(list string) (an ^ " backtrace") live dead;
      Alcotest.(check bool) (an ^ " backtrace depth >= 2") true (List.length dead >= 2))
    [ (Arch.Mips, 1177); (Arch.Sparc, 993); (Arch.M68k, 664); (Arch.Vax, 711) ]

(** A dead process answers queries but refuses to run, step or store. *)
let test_dead_process_is_typed () =
  let s = fault_session ~arch:Arch.Mips in
  let d2, tg2 = postmortem_of s in
  let expect_dead what = function
    | Error (`Dead_process _) -> ()
    | Ok _ -> Alcotest.failf "%s succeeded on a core dump" what
  in
  expect_dead "continue" (Ldb.continue_ d2 tg2);
  expect_dead "step" (Ldb.step_instruction d2 tg2);
  expect_dead "assign"
    (Ldb.assign_int d2 tg2 (Ldb.top_frame d2 tg2) "k" 1);
  (match Ldb.break_function d2 tg2 "main" with
  | exception Ldb.Error _ -> ()
  | _ -> Alcotest.fail "breakpoint planted in a core dump")

(* --- kill and the on-demand dump ------------------------------------------- *)

(** Kill leaves a dump behind: the nub snapshots the stop before dying,
    and the debugger can still pull it across and open it. *)
let test_kill_leaves_a_core () =
  let s = Testkit.debug_session ~arch:Arch.Sparc segv_sources in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  ignore (Ldb.break_function d tg "boom" : int);
  (match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Stopped { signal = Signal.SIGTRAP; _ } -> ()
  | _ -> Alcotest.fail "no stop at the breakpoint");
  let live_bt = List.map (Ldb.frame_function d tg) (Ldb.backtrace d tg) in
  Ldb.kill tg;
  (match tg.Ldb.tg_state with
  | Ldb.Exited 137 -> ()
  | _ -> Alcotest.fail "kill did not mark the target exited");
  let d2, tg2 = postmortem_of s in
  check Alcotest.(list string) "backtrace survives the kill" live_bt
    (List.map (Ldb.frame_function d2 tg2) (Ldb.backtrace d2 tg2))

(* --- detach and kill leave no trap bytes ----------------------------------- *)

let code_bytes (s : Testkit.session) addr len =
  String.init len (fun i ->
      Char.chr (Ram.get_u8 s.Testkit.proc.Host.hp_proc.Proc.ram (addr + i)))

let test_release_unplants () =
  List.iter
    (fun release ->
      let s = Testkit.debug_session ~arch:Arch.Vax [ ("fib.c", Testkit.fib_c) ] in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      let addr = Ldb.break_function d tg "fib" in
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.fail "no stop");
      let t = tg.Ldb.tg_tdesc in
      check Alcotest.string "trap planted" t.Target.brk
        (code_bytes s addr (String.length t.Target.brk));
      (match release with
      | `Detach -> Ldb.detach tg
      | `Kill -> Ldb.kill tg);
      (* the released target's memory holds its own instruction again *)
      check Alcotest.string "no trap bytes left" t.Target.nop
        (code_bytes s addr (String.length t.Target.nop)))
    [ `Detach; `Kill ]

(** Detach suspends breakpoints; reattach replants them and the session
    keeps working (while a breakpoint the user removed stays removed). *)
let test_detach_suspends_reattach_replants () =
  let s = Testkit.debug_session ~arch:Arch.Mips [ ("fib.c", Testkit.fib_c) ] in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  let addr = Ldb.break_function d tg "fib" in
  Ldb.detach tg;
  let t = tg.Ldb.tg_tdesc in
  check Alcotest.string "unplanted while detached" t.Target.nop
    (code_bytes s addr (String.length t.Target.nop));
  (match Host.reattach d tg s.Testkit.proc with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "reattach failed");
  check Alcotest.string "replanted on reattach" t.Target.brk
    (code_bytes s addr (String.length t.Target.brk));
  (match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "replanted breakpoint did not fire");
  Ldb.clear_breakpoint tg ~addr;
  Ldb.detach tg;
  (match Host.reattach d tg s.Testkit.proc with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "second reattach failed");
  (* the removed breakpoint must not come back *)
  check Alcotest.string "cleared breakpoint stays cleared" t.Target.nop
    (code_bytes s addr (String.length t.Target.nop));
  match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Exited 0 -> ()
  | _ -> Alcotest.fail "no clean exit"

(* --- salvage mode ---------------------------------------------------------- *)

let flip_first s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Bytes.to_string b

(** Re-serialize [co] with one section's bytes corrupted but its stored
    CRC intact, as if the dump was damaged at rest. *)
let corrupt_section name (co : Core.t) : string =
  let hit = ref false in
  let sections =
    List.map
      (fun sec ->
        if sec.Core.sec_name = name then begin
          hit := true;
          { sec with Core.sec_bytes = flip_first sec.Core.sec_bytes }
        end
        else sec)
      co.Core.co_sections
  in
  if not !hit then Alcotest.failf "dump has no %S section" name;
  Core.to_string { co with Core.co_sections = sections }

let test_corrupt_data_section_salvages () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = fault_session ~arch in
      let damaged = corrupt_section "data" (Ldb.fetch_core s.Testkit.tg) in
      let co, warnings =
        match Core.of_string damaged with
        | Ok r -> r
        | Error m -> Alcotest.failf "%s: corrupt section rejected the dump: %s" an m
      in
      (match warnings with
      | [ Core.Bad_crc { section = "data"; _ } ] -> ()
      | ws ->
          Alcotest.failf "%s: expected one data Bad_crc, got: %s" an
            (String.concat "; " (List.map Core.salvage_to_string ws)));
      let d2 = Ldb.create () in
      let tg2 =
        Ldb.attach d2 ~name:"damaged"
          ~image:(Ldb.load_image d2 ~loader_ps:s.Testkit.proc.Host.hp_loader_ps)
          (Ldb.Postmortem (Coredump.make (co, warnings)))
      in
      (* the report degrades, it does not abort *)
      (match Ldb.crash_report d2 tg2 with
      | `Full _ -> Alcotest.failf "%s: damaged dump reported as Full" an
      | `Salvage r ->
          check Alcotest.bool (an ^ " registers survive") true (r.Ldb.cr_regs <> []);
          check Alcotest.(list string) (an ^ " backtrace survives")
            [ "boom"; "main" ]
            (List.map (fun f -> f.Ldb.fl_func) r.Ldb.cr_frames);
          let rendered = Ldb.render_crash_report r in
          check Alcotest.bool (an ^ " report names the damage") true
            (contains ~needle:"data" rendered
            || List.exists
                 (fun n ->
                   match n with Ldb.Dump_note (Core.Bad_crc _) -> true | _ -> false)
                 r.Ldb.cr_notes));
      (* a print that touches the damaged section answers, with a warning *)
      let top = Ldb.top_frame d2 tg2 in
      ignore (Ldb.print_value d2 tg2 top "a" : string);
      match Ldb.take_salvage tg2 with
      | [] -> Alcotest.failf "%s: damaged read produced no salvage warning" an
      | w :: _ ->
          check Alcotest.bool (an ^ " warning names the section") true
            (contains ~needle:"data" w))
    Arch.all

let test_truncated_dump_salvages () =
  let s = fault_session ~arch:Arch.M68k in
  let whole = Ldb.core_bytes s.Testkit.tg in
  (* cut the dump off mid-body: headers survive, some sections do not *)
  let cut = String.sub whole 0 (String.length whole * 3 / 5) in
  let co, warnings =
    match Core.of_string cut with
    | Ok r -> r
    | Error m -> Alcotest.failf "truncated dump rejected outright: %s" m
  in
  if not (List.exists (function Core.Truncated _ -> true | _ -> false) warnings)
  then Alcotest.fail "no Truncated warning for a cut dump";
  check Alcotest.int "fault identity survives truncation"
    (Signal.number Signal.SIGSEGV) co.Core.co_signal;
  let d2 = Ldb.create () in
  let tg2 =
    Ldb.attach d2 ~name:"cut"
      ~image:(Ldb.load_image d2 ~loader_ps:s.Testkit.proc.Host.hp_loader_ps)
      (Ldb.Postmortem (Coredump.make (co, warnings)))
  in
  match Ldb.crash_report d2 tg2 with
  | `Full _ -> Alcotest.fail "truncated dump reported as Full"
  | `Salvage r ->
      check Alcotest.bool "registers recovered" true (r.Ldb.cr_regs <> []);
      if not (List.exists (function Ldb.Dump_note _ -> true | _ -> false) r.Ldb.cr_notes)
      then Alcotest.fail "report carries no dump note"

(** A dump too short for even the header is an error, not a session. *)
let test_hopeless_dump_is_an_error () =
  let s = fault_session ~arch:Arch.Vax in
  let whole = Ldb.core_bytes s.Testkit.tg in
  (match Core.of_string (String.sub whole 0 6) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "6 bytes accepted as a core");
  match Core.of_string ("XXXXXXXX" ^ String.sub whole 8 64) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

(** A floating-register width no reader decodes (only 8 and 10 exist)
    is salvage, not a core that crashes the first consumer of its
    registers: the loader warns and drops the floating registers. *)
let test_odd_freg_width_salvages () =
  let p = Proc.create (Target.of_arch Arch.Mips) in
  let co = Core.of_proc p ~signal:(Signal.number Signal.SIGSEGV) ~code:0 in
  List.iter
    (fun width ->
      let odd =
        { co with Core.co_freg_bytes = width;
                  co_fregs = Array.map (fun _ -> String.make width '\x01') co.Core.co_fregs }
      in
      match Core.of_string (Core.to_string odd) with
      | Error m -> Alcotest.failf "width %d: header refused: %s" width m
      | Ok (_, []) -> Alcotest.failf "width %d accepted without a warning" width
      | Ok (back, _ :: _) ->
          check Alcotest.int (Printf.sprintf "width %d: registers kept" width)
            (Array.length co.Core.co_regs) (Array.length back.Core.co_regs);
          ignore (Core.to_proc back : Proc.t))
    [ 0; 4; 9; 11; 64 ]

(* --- the integer-fetch rule ------------------------------------------------ *)

(** Addresses where the rule could go wrong: the code and data segments,
    the nub's context block, the last bytes before a page boundary, and
    either end of the address space. *)
let gen_fetch_addr : int QCheck.Gen.t =
  let open QCheck.Gen in
  let module L = Ram.Layout in
  oneof
    [ int_range L.code_base (L.code_base + 0x2000);
      int_range L.data_base (L.data_base + 0x2000);
      int_range L.context_base (L.context_base + 0x200);
      map2
        (fun page back -> (page * Ram.page_size) - back)
        (int_range 1 ((L.size / Ram.page_size) - 1))
        (int_range 0 3);
      int_range (L.size - 4) (L.size + 4);
      int_range (-4) 0 ]

(* the value of [size] bytes at [addr], read one byte at a time in the
   target's order, refused as the service refuses *)
let bytewise (ram : Ram.t) ~space ~addr ~size =
  if space <> 'c' && space <> 'd' then Error (Printf.sprintf "no space %c" space)
  else if addr < 0 || addr + size > Ram.size ram then
    Error (Printf.sprintf "fault at %#x" addr)
  else
    let byte i = Ram.get_u8 ram (addr + i) in
    let rec go i acc =
      if i = size then acc
      else
        let b = match Ram.order ram with Little -> byte i | Big -> byte (size - 1 - i) in
        go (i + 1) (acc lor (b lsl (8 * i)))
    in
    Ok (go 0 0)

(** [Core.Service.fetch_int] is [Service.fetch] decoded: the same value
    and the same refusal text, for 1, 2 and 4 bytes in either space on
    all four targets, wherever the address falls — and both equal the
    value read a byte at a time. *)
let prop_fetch_int_is_fetch =
  let arb =
    QCheck.make
      ~print:(fun (arch, space, size, addr, _) ->
        Printf.sprintf "%s %c %d @ %#x" (Arch.name arch) space size addr)
      QCheck.Gen.(
        tup5 (oneofl Arch.all) (oneofl [ 'c'; 'd'; 'c'; 'd'; 'r' ]) (oneofl [ 1; 2; 4 ])
          gen_fetch_addr (string_size (return 16)))
  in
  Testkit.qtest "integer fetch = decoded fetch, all targets" ~count:2000 arb
    (fun (arch, space, size, addr, bytes) ->
      let tg = Target.of_arch arch in
      let ram = Ram.create (Target.order tg) in
      String.iteri
        (fun i c ->
          let a = addr - 8 + i in
          if a >= 0 && a < Ram.size ram then Ram.set_u8 ram a (Char.code c))
        bytes;
      let decoded =
        Result.map Ldb_amemory.Amemory.decode_int (Core.Service.fetch tg ram ~space ~addr ~size)
      in
      let int =
        match Core.Service.fetch_int ram ~space ~addr ~size with
        | v -> Ok v
        | exception Core.Service.Refused m -> Error m
      in
      int = decoded && int = bytewise ram ~space ~addr ~size)

let () =
  Alcotest.run "core"
    [
      ( "codec",
        [ prop_codec_roundtrip; prop_codec_total; prop_sections_match_flat_trim;
          Alcotest.test_case "hopeless dumps rejected" `Quick
            test_hopeless_dump_is_an_error ] );
      ( "dumps",
        [ Alcotest.test_case "fault dumps on all targets" `Quick
            test_fault_dumps_all_archs;
          Alcotest.test_case "kill leaves a core" `Quick test_kill_leaves_a_core;
          Alcotest.test_case "printf then fault: dump at most 1 MiB" `Quick
            test_printf_dump_bound ] );
      ( "postmortem",
        [ Alcotest.test_case "live = post-mortem on all targets" `Quick
            test_live_vs_postmortem;
          Alcotest.test_case "sparse dumps, live = post-mortem" `Quick test_sparse_dumps;
          Alcotest.test_case "dead process errors are typed" `Quick
            test_dead_process_is_typed ] );
      ( "release",
        [ Alcotest.test_case "detach/kill leave no trap bytes" `Quick
            test_release_unplants;
          Alcotest.test_case "detach suspends, reattach replants" `Quick
            test_detach_suspends_reattach_replants ] );
      ("service", [ prop_fetch_int_is_fetch ]);
      ( "salvage",
        [ Alcotest.test_case "corrupt data section degrades" `Quick
            test_corrupt_data_section_salvages;
          Alcotest.test_case "truncated dump degrades" `Quick
            test_truncated_dump_salvages;
          Alcotest.test_case "odd floating-register width degrades" `Quick
            test_odd_freg_width_salvages ] );
    ]
