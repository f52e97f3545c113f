//! The `mosaic-bench` binary; its commands live in the library.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mosaic_bench::main(&args)
}
