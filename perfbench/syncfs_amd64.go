package main

// sysSyncfs is syncfs(2) on linux/amd64; the syscall package does not
// export it.
const sysSyncfs = 306
