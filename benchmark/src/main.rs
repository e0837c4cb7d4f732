fn main() -> std::process::ExitCode {
    stencil_benchmark::cli::main()
}
